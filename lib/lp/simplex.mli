(** Bounded-variable dual simplex on a dense tableau.

    Solves [min c·x] subject to row activities [A x] within per-row
    bounds ([≥ b], [≤ b] or [= b]) and column bounds [0 ≤ x ≤ ub]. Each
    row's activity is a variable of its own, carrying the row's bounds,
    so an upper bound or a branch-and-bound fixing is a column bound,
    never an extra row.

    The iteration is the dual simplex: the leaving row is the basic
    variable with the largest bound violation (lowest row on ties); the
    entering column is the smallest [|d_j / α_rj|] among the nonbasic
    columns that can move it, ties to the largest [|α_rj|] and then the
    lowest index. After a run of degenerate (zero-ratio) pivots, Bland's
    smallest-index rule takes over until a pivot makes progress, so the
    method cannot cycle. A pivot updates each row only at the pivot
    row's nonzero columns.

    A solve starts at the slack basis, each structural at the bound its
    cost's sign prefers. That basis is dual feasible when every cost is
    [≥ 0] or its column has a finite upper bound; otherwise a dual phase
    1 (Koberstein & Suhl's auxiliary problem, solved by the same
    iteration) finds a dual feasible basis or shows that none exists,
    and a zero-cost run then tells an unbounded problem from an
    infeasible one.

    A solved {!tableau} can be copied, have one more column bound
    tightened and be re-optimised from its basis: the basis stays dual
    feasible, so a branch-and-bound child typically needs a few pivots
    where a fresh solve needs hundreds. This is the LP backend of
    {!module:Milp}, replacing the CPLEX dependency of the paper. *)

type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

type lp
(** A minimisation problem in bounded form, read but never changed by
    the solves that use it. *)

val lp :
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  ub:float array ->
  lp
(** [lp ~a ~rel ~b ~c ~ub]: minimise [c·x] over [m] rows [a.(i)·x rel.(i)
    b.(i)] and columns [0 ≤ x_j ≤ ub.(j)]. [a] is kept, not copied.
    @raise Invalid_argument on dimension mismatches. *)

val max_pivots : int
(** The pivots one solve may take: 100,000, far above the 1,721 of the
    largest measured solve (a root relaxation of 699 rows and 271
    columns). *)

exception Pivot_limit of { rows : int; cols : int }
(** Raised by a solve that reaches {!max_pivots}: the iteration cycles,
    which the tie rules should make impossible, so this is a bug to
    report, not a hard problem to wait out. [rows] and [cols] are the
    problem's. *)

type workspace
(** What a sequence of solves shares: the storage of the last released
    tableau, which the next tableau reuses when it fits, and a pivot
    count. A workspace serves one solve at a time, so it must never be
    shared between domains. *)

val workspace : unit -> workspace

val pivots : workspace -> int
(** Pivots taken by the solves through this workspace. *)

type tableau
(** A basis of one {!lp}: the tableau, each column's status (basic or at
    a bound), every variable's value and the current column bounds. *)

val start : workspace -> lp -> tableau
(** The slack basis under the problem's own bounds. *)

val tighten : tableau -> int -> lo:float -> hi:float -> unit
(** [tighten t j ~lo ~hi] intersects structural column [j]'s bounds with
    [[lo, hi]]. A nonbasic column moves to its tightened bound and every
    basic value follows it; the basis stays dual feasible. *)

val optimise :
  budget:Resilience.Budget.t -> workspace -> tableau -> outcome
(** Re-optimise [t] from its basis, polling [budget] before every pivot.
    The objective is the minimum of [c·x]; an [Optimal] tableau can be
    copied and re-optimised again after further {!tighten}s.
    @raise Resilience.Budget.Exhausted when [budget] runs out.
    @raise Pivot_limit after {!max_pivots} pivots. *)

val copy : workspace -> tableau -> tableau
(** An independent copy, in the workspace's spare storage when it fits. *)

val release : workspace -> tableau -> unit
(** Hand [t]'s storage to the workspace for the next {!start} or {!copy};
    [t] must not be used afterwards. *)

val floats : tableau -> int
(** The floats [t] keeps alive. *)

val minimize :
  a:float array array ->
  rel:relation array ->
  b:float array ->
  c:float array ->
  outcome
(** [minimize ~a ~rel ~b ~c] with [a] an [m×n] row-major constraint matrix.
    All variables are non-negative and unbounded above; use
    {!module:Problem} for a model-building interface with upper bounds.
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
(** {!minimize} or {!maximize} by [sense] from the slack basis, polling
    [budget] before every pivot, with the tableau in [workspace]'s
    storage. What earlier solves left there does not change the pivots,
    and so the outcome.
    @raise Resilience.Budget.Exhausted when [budget] runs out.
    @raise Pivot_limit after {!max_pivots} pivots. *)
