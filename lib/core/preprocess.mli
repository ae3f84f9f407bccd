(** Graph pre-processing (§V-A): turning an SBDD into the undirected graph
    that the VH-labeling step consumes.

    The 0-terminal and its incoming edges are removed (flow-based
    computing only needs paths witnessing the 1 output); every remaining
    BDD node becomes a graph node and every decision edge an undirected
    edge carrying the literal that will program its memristor — the
    else-edge of a node testing [x] carries [!x], the then-edge [x].
    Literals are {!Crossbar.Literal} int codes over the SBDD's input
    order ([inputs]): the variable at level [k] is [k], so a then-edge
    carries [pos_code k] = [2k + 1] and an else-edge [neg_code k] =
    [2k + 2]. *)

val of_sbdd : Bdd.Sbdd.t -> Types.bdd_graph
(** Graph node 0 is the 1-terminal; the other nodes are numbered in
    {!Bdd.Manager.reachable}'s discovery order. Every decision edge is a
    graph edge: a reduced diagram has low ≠ high, and its edges go
    strictly down the levels, so none is a self-loop or a repeat. The
    [edges] array lists them in that discovery order, each node's
    else-edge before its then-edge.
    Constant-0 outputs become {!Types.Const_false} roots; constant-1
    outputs map to the terminal node. If the diagram is the single
    constant 0, the graph still contains the (unreachable) 1-terminal so
    downstream stages have an input wire to bind. *)

val num_bdd_nodes : Types.bdd_graph -> int
(** Graph nodes = BDD nodes minus the 0-terminal. *)

val num_bdd_edges : Types.bdd_graph -> int
