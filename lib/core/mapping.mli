(** Crossbar mapping (§V-C): binding a labelled BDD graph to a concrete
    crossbar design.

    Node assignment: every H/VH node receives a wordline, every V/VH node a
    bitline; each VH node's wordline/bitline pair is fused with a hardwired
    ON memristor. Edge assignment: the literal of every graph edge is
    programmed at the junction of one endpoint's wordline and the other's
    bitline (the labeling guarantees such a pair exists).

    Row layout follows the paper's conventions: output (root) wordlines at
    the top, the input (1-terminal) wordline at the bottom. Constant-0
    outputs get a dedicated, unconnected wordline; constant-1 outputs share
    the input's nanowire. *)

val run : Types.bdd_graph -> Types.labeling -> Crossbar.Design.t
(** @raise Invalid_argument if the labeling does not belong to the graph
    or violates the connection constraints. *)
