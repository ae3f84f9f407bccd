(** Bipartiteness testing, 2-colouring and connected components. *)

type residual = {
  color : int array;  (** 0 or 1 on kept vertices, [-1] on dropped ones *)
  comp : int array;  (** component index on kept vertices, [-1] on dropped *)
  num_comps : int;
}

val residual : Ugraph.t -> keep:bool array -> residual option
(** [residual g ~keep] 2-colours the subgraph induced by the kept vertices
    and splits it into connected components, in one BFS over [g] itself
    (no subgraph is built). [None] when that subgraph has an odd cycle.

    Both results are canonical, so neighbour order does not matter:
    components are numbered [0 .. num_comps-1] in the order of their
    smallest vertex, that vertex gets colour 0, and every other vertex
    the parity of its distance from it. This is exactly {!two_color} and
    {!components} of the induced subgraph (its vertices renumbered in
    increasing order), read back through that renumbering.
    @raise Invalid_argument if [keep] does not have one entry per vertex. *)

val two_color : Ugraph.t -> int array option
(** [two_color g] is [Some colors] with [colors.(v) ∈ {0, 1}] and no
    monochromatic edge, or [None] when [g] has an odd cycle. Isolated
    vertices get colour 0. *)

val is_bipartite : Ugraph.t -> bool

val odd_cycle : Ugraph.t -> int list option
(** A witness odd cycle (list of distinct vertices in cycle order) when the
    graph is not bipartite. *)

val components : Ugraph.t -> int array * int
(** [(comp, k)] where [comp.(v)] is the component index of [v],
    [0 <= comp.(v) < k]. *)
