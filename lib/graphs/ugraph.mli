(** Simple undirected graphs over integer vertices [0 .. n-1].

    The graph is a mutable builder: create it with a fixed vertex count and
    add edges. Self-loops and parallel edges are silently ignored, so the
    structure is always a simple graph — the form required by the
    VH-labeling theory (a BDD graph never needs self-loops; a node is never
    its own child). *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices.
    @raise Invalid_argument if [n < 0]. *)

val of_edges : n:int -> (int * int) list -> t

val add_edge : t -> int -> int -> unit
(** Ignores self-loops and duplicates.
    @raise Invalid_argument if an endpoint is out of range. *)

val num_nodes : t -> int
val num_edges : t -> int
val has_edge : t -> int -> int -> bool
val degree : t -> int -> int

val neighbors : t -> int -> int list
(** In insertion order. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_neighbors f g v] applies [f] to every neighbour of [v], in
    reverse insertion order, without building a list. Prefer it where
    the result does not depend on neighbour order; loops whose result
    does (a BFS that breaks ties by visit order) keep {!neighbors}. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each edge visited once, with the smaller endpoint first. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int) list

val max_degree : t -> int
(** 0 on the empty graph. *)

val copy : t -> t

val induced : t -> keep:bool array -> t * int array
(** [induced g ~keep] is the subgraph on the kept vertices together with
    the map from old vertex ids to new ids ([-1] for dropped vertices). *)

val complement_set : t -> int list -> bool array
(** [complement_set g vs] is the characteristic vector of [V \ vs]. *)

val pp : Format.formatter -> t -> unit
