(** Two-phase primal tableau simplex.

    Solves [min c·x] subject to [A x {≤,≥,=} b], [x ≥ 0]. Bland's rule is
    used throughout, so the method cannot cycle. The tableau is stored in
    full, but a pivot updates each row only at the pivot row's nonzero
    columns, and a {!workspace} lets a sequence of solves share one
    tableau's storage. Intended problem sizes are hundreds to a few
    thousand rows and columns. This is the LP backend of {!module:Milp},
    replacing the CPLEX dependency of the paper. *)

type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

type workspace
(** Tableau storage that a sequence of solves can share: each solve
    zero-fills the part it uses and grows the storage when its problem
    is larger than any before. A workspace serves one solve at a time,
    so it must never be shared between domains. *)

val workspace : unit -> workspace
(** An empty workspace; the first solve sizes it. *)

val minimize :
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** [minimize ~a ~rel ~b ~c] with [a] an [m×n] row-major constraint matrix.
    All variables are non-negative; use {!module:Problem} for a friendlier
    model-building interface with upper bounds.
    @raise Invalid_argument on dimension mismatches. *)

val maximize :
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** Same, negating the objective; the reported [objective] is the maximum. *)

val solve :
  workspace:workspace ->
  budget:Resilience.Budget.t ->
  sense:[ `Minimize | `Maximize ] ->
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** {!minimize} or {!maximize} by [sense], polling [budget] before every
    pivot, with the tableau in [workspace]'s storage. What earlier
    solves left there does not change the pivots, and so the outcome.
    @raise Resilience.Budget.Exhausted when [budget] runs out. *)
