(** Mixed-integer linear programming by LP-based branch & bound.

    Replaces the CPLEX dependency of the paper. The solver is *anytime*:
    under a work budget it returns the best incumbent, the best proven
    bound and the relative gap, and it records a convergence trace —
    exactly the quantities plotted in Figs 10 and 11 of the paper.

    Branching: most-fractional integer variable; node selection:
    best-bound-first. An initial incumbent (e.g. from a combinatorial
    heuristic) can be supplied to warm-start pruning, and a bound proved
    outside the search lets it stop, as CPLEX does, once the incumbent
    meets that bound. *)

type status =
  | Optimal  (** incumbent proven optimal *)
  | Feasible  (** budget exhausted with an incumbent *)
  | No_incumbent  (** budget exhausted before any integer solution *)
  | Infeasible

type trace_point = {
  t_elapsed : float;  (** seconds since solve started *)
  t_incumbent : float option;  (** best integer objective so far *)
  t_bound : float;  (** best proven bound *)
  t_gap : float;  (** relative gap, 1.0 when no incumbent *)
}

type result = {
  status : status;
  objective : float option;
  solution : float array option;
  bound : float;
  gap : float;
  nodes : int;
  elapsed : float;
  trace : trace_point list;  (** chronological *)
}

(** Binary min-heap on float keys — the solver's node frontier, exposed
    for direct unit testing. *)
module Heap : sig
  type 'a t

  val create : unit -> 'a t
  (** Empty heap with an initial capacity of 64 slots; grows by
      doubling. *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val push : 'a t -> float -> 'a -> unit

  val peek_key : 'a t -> float
  (** Smallest key. @raise Invalid_argument on an empty heap. *)

  val pop : 'a t -> 'a
  (** Remove and return the value with the smallest key.
      @raise Invalid_argument on an empty heap. *)
end

val solve :
  ?budget:Resilience.Budget.t ->
  ?initial:float array * float ->
  ?known_bound:float ->
  ?objective_step:float ->
  Lp.Problem.t ->
  result
(** [solve p] minimises or maximises [p] (per its objective sense) with all
    variables marked integer restricted to integral values.
    [initial = (point, value)] seeds the incumbent — the point is trusted
    to be feasible. A variable within [1e-6] of an integer counts as
    integral.

    [known_bound] is a bound on the optimum proved outside the search (a
    lower bound when minimising, an upper bound when maximising); it is
    trusted, like [initial]. The search ends as soon as the incumbent
    meets it within [1e-9]: before the root relaxation when [initial]
    already does, or when a node yields such an incumbent. The result is
    then [Optimal] with [bound] equal to the objective and gap 0 — what
    an exhaustive search would report, since no node can beat the
    incumbent by more than the tolerance. A search stopped by its budget
    reports the stronger of [known_bound] and its own frontier bound.
    When [initial] meets [known_bound], the dense form of [p]
    ({!Lp.Problem.lp}) is never built.

    [objective_step] is a property of the model, trusted like
    [known_bound]: every integer point's objective lies on
    [objective_step]·ℤ. A node is then pruned, when it is expanded and
    when it is popped, once [step·⌈score/step − 1e-6⌉] meets the
    incumbent within [1e-9], since no integer point below it can beat
    the incumbent. Such a node is added to the [bb.lattice_pruned] Obs
    counter when the plain comparison would have kept it.
    @raise Invalid_argument if [objective_step] is not positive.

    [budget] (default unlimited) is polled before every expansion and
    before every simplex pivot, and each expanded node is charged
    against its node allowance; on exhaustion the solver stops and
    reports the incumbent and bound found so far — it never raises. A
    relaxation the budget stops leaves its node on the frontier, so the
    reported bound still covers it. A node allowance of [k] expands at
    most [k + 1] nodes: the charge that trips it stops the last one's
    relaxation in flight.

    Each node re-optimises its parent's final simplex tableau after the
    one bound that made it ({!Lp.Simplex.tighten}), so a relaxation
    takes a few dual pivots instead of a solve from scratch. The two
    children share the tableau: the first popped copies it, the last
    takes it. Saved tableaux alive at once are capped at 1M floats
    (about 8 MB); a node solved past the cap hands none down, and its
    children start from the slack basis under all their fixings. The
    pivots of a search are added to the [lp.pivots] Obs counter beside
    [bb.nodes].

    The search is sequential and deterministic: the same problem,
    [initial], [known_bound] and [objective_step] give the same result,
    nodes and trace (but for [elapsed] and the trace's times). Its node
    relaxations share one {!Lp.Simplex.workspace}, created by the call
    and dropped on return, so concurrent searches never share a
    tableau. *)

val relative_gap : incumbent:float option -> bound:float -> float
(** CPLEX-style gap: |incumbent − bound| / max(1e-10, |incumbent|);
    [1.0] when there is no incumbent. *)
