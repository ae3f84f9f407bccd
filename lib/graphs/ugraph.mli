(** Simple undirected graphs over integer vertices [0 .. n-1].

    A graph is immutable: {!build} makes it in one linear pass from an
    edge sequence. Self-loops and repeated edges are dropped, so the
    structure is always a simple graph — the form required by the
    VH-labeling theory (a BDD graph never needs self-loops; a node is never
    its own child).

    Neighbour order is fixed by the sequence: [v]'s neighbours come in the
    order their first edge with [v] was given. It is the order adding the
    edges one at a time and ignoring repeats would give, and loops that
    break ties by visit order (a BFS, an augmenting-path search) depend on
    it. *)

type t

val build : n:int -> ((int -> int -> unit) -> unit) -> t
(** [build ~n edges] is the graph on [n] vertices whose edges are those
    [edges add] passes to [add], called once. Costs O(n + edges): the
    edges are buffered as they come, appended to both endpoints' lists,
    and each list then keeps the first occurrence of every neighbour.
    @raise Invalid_argument if [n < 0] or an endpoint is out of range. *)

val of_edges : n:int -> (int * int) list -> t
(** {!build} over a list. *)

val num_nodes : t -> int
val num_edges : t -> int

val has_edge : t -> int -> int -> bool
(** O(degree). *)

val degree : t -> int -> int
(** O(1). *)

val neighbors : t -> int -> int list
(** In insertion order. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_neighbors f g v] applies [f] to every neighbour of [v], in
    reverse insertion order, without building a list. Prefer it where
    the result does not depend on neighbour order; loops whose result
    does (a BFS that breaks ties by visit order) keep {!neighbors}. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each edge visited once, with the smaller endpoint first: by that
    endpoint ascending, then in reverse insertion order. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val complement_set : t -> int list -> bool array
(** [complement_set g vs] is the characteristic vector of [V \ vs]. *)
