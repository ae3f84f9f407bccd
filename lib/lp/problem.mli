(** Linear-program model builder.

    Thin mutable wrapper that accumulates named variables and constraints
    and materialises them as the dense {!Simplex.lp} once, on first use;
    {!add_var}, {!add_constraint} and {!set_objective} drop that form.
    All variables are non-negative; a finite upper bound is a column
    bound of the simplex, not a row. Integrality markers are ignored
    here — they are enforced by {!module:Milp}. *)

type t
type var = private int

val create : unit -> t

val add_var : ?ub:float -> ?integer:bool -> t -> string -> var
(** A non-negative variable. [ub] defaults to [infinity]; [integer]
    defaults to [false]. *)

val add_binary : t -> string -> var
(** Shorthand for an integer variable with upper bound 1. *)

val add_constraint : t -> (float * var) list -> Simplex.relation -> float -> unit

val set_objective : t -> sense:[ `Minimize | `Maximize ] -> (float * var) list -> unit

val sense : t -> [ `Minimize | `Maximize ]
val num_vars : t -> int
val num_constraints : t -> int
val var_name : t -> var -> string
val is_integer : t -> var -> bool
val integer_vars : t -> var list
val objective_value : t -> float array -> float
(** Evaluate the objective (in the problem's own sense) on a point. *)

val lp : t -> Simplex.lp
(** The problem in the simplex's form, in minimisation sense (a
    maximisation's costs are negated): the rows in the order they were
    added, each variable's upper bound as its column bound. Built on the
    first call and kept until the next edit. *)

val solve_relaxation :
  ?budget:Resilience.Budget.t ->
  ?bounds:(var * float * float) list ->
  ?workspace:Simplex.workspace ->
  t ->
  Simplex.outcome
(** Solve the LP relaxation from the slack basis, with optional
    per-variable bound overrides [(v, lb, ub)], each intersected with
    the variable's bounds. The reported objective is in the problem's
    sense (a maximisation problem reports the maximum). [workspace]
    (default: a fresh one) lends the tableau's storage; a caller that
    solves many relaxations in turn passes the same one to each.
    @raise Resilience.Budget.Exhausted when [budget] (default
    unlimited) runs out; see {!Simplex.solve}. *)
