(** Odd cycle transversal (OCT): a minimum set of vertices whose removal
    makes the graph bipartite.

    Implements Lemma 1 of the paper: G on [n] vertices has an OCT of size
    [k] iff G□K2 has a vertex cover of size [n + k]; a vertex belongs to
    the OCT exactly when both of its product copies are in the cover. *)

type result = {
  transversal : int list;  (** vertices labelled VH downstream *)
  coloring : int array;
      (** the canonical 2-colouring of the residual graph
          ({!Bipartite.residual}); [colors.(v) ∈ {0, 1}] for kept
          vertices, [-1] for transversal vertices *)
  optimal : bool;
  lower_bound : int;  (** proven lower bound on the OCT size *)
  elapsed : float;
}

val solve : ?budget:Resilience.Budget.t -> Ugraph.t -> result
(** Exact (anytime under a budget) minimum OCT via vertex cover of
    G□K2. The residual graph is always bipartite and [coloring] is a valid
    2-colouring of it. *)

val greedy : Ugraph.t -> result
(** Fast heuristic: BFS 2-colouring that moves conflict vertices into the
    transversal, followed by one re-insertion pass that returns transversal
    vertices whose neighbourhood became monochromatic. Not optimal
    ([optimal = false] unless the graph is already bipartite). *)

val is_transversal : Ugraph.t -> int list -> bool
(** Does removing the vertices leave a bipartite graph? *)
