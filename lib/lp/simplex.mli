(** Dense two-phase primal simplex.

    Solves [min c·x] subject to [A x {≤,≥,=} b], [x ≥ 0]. Bland's rule is
    used throughout, so the method cannot cycle. Intended problem sizes are
    thousands of variables/rows (dense tableau storage). This is the LP
    backend of {!module:Milp}, replacing the CPLEX dependency of the
    paper. *)

type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

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
  budget:Resilience.Budget.t ->
  sense:[ `Minimize | `Maximize ] ->
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** {!minimize} or {!maximize} by [sense], polling [budget] before every
    pivot.
    @raise Resilience.Budget.Exhausted when [budget] runs out. *)
