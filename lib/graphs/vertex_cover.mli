(** Minimum vertex cover.

    The paper's §VI-A solves the VH-labeling problem through a minimum
    vertex cover of G□K2 (Lemma 1), computed with an ILP solver. Here the
    cover is computed by a dedicated exact solver: reduction rules for
    degree-0/1 vertices and branch & bound with greedy-matching lower
    bounds, starting from the greedy cover. A time budget turns the
    solver into an anytime algorithm that reports the incumbent and the
    best lower bound — mirroring the CPLEX interface the paper relies on
    (Figs 10 and 11).

    The root bound needs no LP: on G□K2 the rungs [(v, v + n)] are a
    perfect matching, so the LP optimum is x ≡ ½ with value n — the size
    of the root's greedy matching — and Nemhauser–Trotter kernelisation
    would fix no vertex. *)

type result = {
  cover : bool array;  (** characteristic vector of the cover found *)
  size : int;  (** |cover| *)
  lower_bound : int;  (** proven lower bound on the optimum *)
  optimal : bool;  (** [size = lower_bound] *)
}

val solve :
  ?budget:Resilience.Budget.t -> ?lower_bound:int -> Ugraph.t -> result
(** [solve g] computes a minimum vertex cover, stopping early when
    [budget] (default: [Resilience.Budget.unlimited]) exhausts — polled
    every 256 branch & bound nodes, which are also charged against the
    budget's node allowance — and returning the best cover found so far
    ([optimal = false]). The returned [cover] is always a valid vertex
    cover; the solver never raises on exhaustion. On exhaustion the
    lower bound is the larger of [lower_bound] and the size of the
    greedy maximal matching ({!Matching.greedy_maximal}) taken at the
    root.

    [lower_bound] is a bound on the minimum cover proved outside the
    search, and trusted. The search ends as soon as its incumbent meets
    the larger of it and the root matching, before the first node when
    the greedy cover already does. The incumbent is replaced only on a
    strict improvement, so the cover returned is the one the exhaustive
    search returns. Without [lower_bound] the search expands the same
    nodes as before, and adds them to the [vc.nodes] Obs counter. *)

val is_cover : Ugraph.t -> bool array -> bool
(** Checks that every edge has a covered endpoint. *)

val greedy_cover : Ugraph.t -> bool array
(** Fast 2-approximation (maximal matching) improved by removal of
    redundant vertices; used as the initial incumbent. *)
