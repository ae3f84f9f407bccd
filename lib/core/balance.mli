(** Balancing the 2-colouring (the paper's Fig 6 optimisation).

    After the odd-cycle transversal is fixed, each connected component of
    the residual bipartite graph has exactly two colourings (one is the
    flip of the other). Choosing the flip per component to minimise the
    maximum dimension is a subset-sum problem over the per-component
    colour-count differences — solved exactly by dynamic programming (with
    a greedy fallback for very large instances).

    Alignment (Eq 7) restricts flips: components containing the terminal
    or a root must orient those nodes to H. When one component holds
    aligned nodes of both colours, no flip can satisfy them all; the
    minority aligned nodes are upgraded to VH (always safe, §V-B).

    [balance] (default true) enables the flip optimisation; with it off,
    free components keep their canonical colouring — the ablation
    baseline the paper's Fig 6 improves on. *)

val orient :
  ?alignment:bool ->
  ?balance:bool ->
  Types.bdd_graph ->
  transversal:bool array ->
  Types.label array
(** [orient bg ~transversal] produces a full label array: transversal
    nodes become [VH]; each residual component is flipped to balance rows
    against columns. The residual graph (the BDD graph minus the
    transversal) is coloured and split into components by one
    {!Graphs.Bipartite.residual} pass, whose colouring is canonical: a
    component's smallest node has colour 0, and colour 0 maps to H in an
    unflipped component.
    @raise Invalid_argument on arity mismatch, or when the residual has
    an odd cycle (the transversal is not one). *)

val choose_signs : base:int -> int array -> int array
(** [choose_signs ~base deltas] picks a sign [s_i ∈ {+1, −1}] per delta
    so that [base + Σ s_i·deltas.(i)] is as close to 0 as possible; on a
    tie the smaller sum wins. Exact when [k × (2·Σ|deltas.(i)| + 1)] is
    at most {!exact_dp_limit} ([k] deltas): a subset-sum DP that keeps
    one bitset of reachable partial sums per step and rebuilds the signs
    from those bitsets, taking [t − |d|] as the parent of sum [t] when it
    was reachable a step earlier, else [t + |d|]. Above the limit, a
    greedy pass sets the signs largest [|delta|] first. *)

val exact_dp_limit : int
(** Components × range budget above which the solver falls back to the
    greedy sign-assignment heuristic. *)
