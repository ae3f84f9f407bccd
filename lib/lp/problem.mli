(** Linear-program model builder.

    Thin mutable wrapper that accumulates named variables and constraints
    and materialises them as the row arrays {!module:Simplex} takes. All
    variables are non-negative; finite upper bounds become constraint rows
    at solve time. Integrality markers are ignored here — they are enforced
    by {!module:Milp}. *)

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

val solve_relaxation :
  ?budget:Resilience.Budget.t ->
  ?bounds:(var * float * float) list ->
  ?workspace:Simplex.workspace ->
  t ->
  Simplex.outcome
(** Solve the LP relaxation, with optional per-variable bound overrides
    [(v, lb, ub)] added as constraint rows. The reported objective is in
    the problem's sense (a maximisation problem reports the maximum).
    [workspace] (default: a fresh one) holds the tableau; a caller that
    solves many relaxations in turn passes the same one to each.
    @raise Resilience.Budget.Exhausted when [budget] (default
    unlimited) runs out; see {!Simplex.solve}. *)
