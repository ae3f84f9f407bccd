(** Scalable VH-labeling: OCT pipeline plus local search on the weighted
    objective.

    Reproduces the behaviour the MIP exhibits on large instances where
    exact solving is out of reach: starting from a (minimum or greedy)
    odd-cycle transversal and a balanced 2-colouring, the search repeats
    the paper's Fig 7 move — upgrade a node to VH, splitting its component
    and re-balancing — whenever it improves γ·S + (1−γ)·D. With γ = 1 the
    move never helps and the method reduces to the OCT pipeline. *)

val solve :
  ?budget:Resilience.Budget.t ->
  ?alignment:bool ->
  ?gamma:float ->
  Types.bdd_graph ->
  Types.labeling
(** Default [gamma = 0.5]. Half the remaining [budget] goes to the
    initial OCT (exact for graphs of ≤ [3000] nodes, greedy above), the
    rest to the local search; exhaustion mid-search returns the
    incumbent labeling. The search runs at most 25 rounds; each tries
    the 24 highest-degree nodes outside the transversal (ties to the
    higher id; the nodes are ranked once per solve) plus the terminal
    and the roots, in increasing node order, and keeps a move
    only when it lowers the objective. Moves are priced by a
    {!Balance.upgrade_index} of the current transversal: one DFS over
    the residual, then O(degree) plus one flip DP per move. The index is
    rebuilt only when a candidate stays in the transversal, and
    {!Balance.orient} runs only to label an accepted move. The
    [heuristic.moves] and [heuristic.accepted] counters count both per
    solve, beside [heuristic.rounds]. *)

val exact_oct_node_threshold : int
