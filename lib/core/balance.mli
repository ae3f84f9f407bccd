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

type upgrade_index
(** The residual of one transversal, indexed to price the paper's Fig 7
    move (upgrade a node to VH) on every node outside it without
    re-orienting. One iterative DFS over the residual, entering each
    component at its smallest node so that depth parity is {!orient}'s
    canonical colour, records discovery times, lowpoints and parents,
    and per subtree its nodes and aligned nodes of each colour and its
    smallest node. Removing v splits its component into the subtrees of
    v's DFS children whose lowpoint does not reach above v, plus the rest
    (Hopcroft & Tarjan, "Efficient algorithms for graph manipulation",
    CACM 1973); every other component is unchanged. *)

val upgrade_index :
  ?alignment:bool -> Types.bdd_graph -> transversal:bool array -> upgrade_index
(** [upgrade_index bg ~transversal] indexes the residual of [transversal]
    in O(nodes + edges). [alignment] (default false) is {!orient}'s.
    @raise Invalid_argument on arity mismatch, or when the residual has
    an odd cycle. *)

val score : upgrade_index -> int -> int * int
(** [score index v] is [(s, d)], the semiperimeter and maximum dimension
    of [orient ~alignment bg ~transversal'], where [transversal'] adds
    [v] to the index's transversal. It costs O(degree of v) plus one
    {!choose_signs} over the free components. It gives S and D, not rows
    and cols: it passes the free components' deltas in another order
    than {!orient} does, and past {!exact_dp_limit} the greedy signs
    depend on that order for the sign of rows − cols, though not for its
    magnitude.
    @raise Invalid_argument if [v] is in the transversal. *)

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
