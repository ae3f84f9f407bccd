(** Odd cycle transversal (OCT): a minimum set of vertices whose removal
    makes the graph bipartite.

    Implements Lemma 1 of the paper: G on [n] vertices has an OCT of size
    [k] iff G□K2 has a vertex cover of size [n + k]; a vertex belongs to
    the OCT exactly when both of its product copies are in the cover.
    {!solve} builds the product with {!with_k2} and covers it with
    {!Vertex_cover.solve}. *)

type result = {
  transversal : int list;  (** vertices labelled VH downstream *)
  optimal : bool;
  lower_bound : int;  (** proven lower bound on the OCT size *)
  elapsed : float;
}

val with_k2 : Ugraph.t -> Ugraph.t
(** [with_k2 g] is G□K2: two copies of [g] (vertex [v] becomes [v] in
    copy 0 and [v + n] in copy 1) plus a rung edge [(v, v + n)] for every
    vertex, added after all copy edges. *)

val odd_cycle_packing : Ugraph.t -> int list list
(** Vertex-disjoint odd cycles of [g], each in cycle order (its last
    vertex adjacent to its first). Every odd cycle transversal holds a
    vertex of each, so their number bounds the minimum OCT from below.

    Greedy: from each vertex in index order that no cycle holds yet, a
    BFS over the vertices not yet packed, at most 8 layers deep. The
    first edge it meets between two vertices of one layer closes an odd
    cycle through their nearest common ancestor (at most 17 vertices),
    and that cycle's vertices leave the graph. Empty on bipartite
    graphs; deterministic. Linear in the BFS balls it walks: about a
    millisecond on the 3,000-node graphs the exact search covers. *)

val solve : ?budget:Resilience.Budget.t -> Ugraph.t -> result
(** Exact (anytime under a budget) minimum OCT via vertex cover of
    G□K2. The residual graph is always bipartite; {!Compact.Balance}
    2-colours it. On graphs of at most 3,000 vertices, the ones the
    labeling flow covers exactly, the {!odd_cycle_packing} of [g] gives
    the cover search the lower bound n + |packing|
    ({!Vertex_cover.solve}'s [lower_bound]): the search stops as soon
    as its incumbent meets it, and on exhaustion [lower_bound] is
    |packing| (0 on larger graphs). The packing's size is added to the
    [oct.packing] Obs counter. *)

val greedy : Ugraph.t -> result
(** Fast heuristic: BFS 2-colouring that moves conflict vertices into the
    transversal, followed by one re-insertion pass that returns transversal
    vertices whose neighbourhood became monochromatic. Not optimal
    ([optimal = false] unless the graph is already bipartite). *)

val is_transversal : Ugraph.t -> int list -> bool
(** Does removing the vertices leave a bipartite graph? *)
