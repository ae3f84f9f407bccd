(** Maximum bipartite matching (Hopcroft–Karp) and greedy maximal
    matching. *)

val hopcroft_karp : Ugraph.t -> left:bool array -> int array
(** [hopcroft_karp g ~left] computes a maximum matching of the bipartite
    graph [g] whose sides are given by [left]. Returns [mate] with
    [mate.(v)] the partner of [v] or [-1]. Runs in O(E·√V).
    @raise Invalid_argument if some edge joins two vertices of one side. *)

val matching_size : int array -> int
(** Number of matched pairs in a mate array. *)

val perfect_bipartite :
  left:int -> right:int -> compatible:(int -> int -> bool) -> int array option
(** [perfect_bipartite ~left ~right ~compatible] assigns every left
    vertex [0 .. left-1] a distinct right vertex [0 .. right-1] with
    [compatible i k] true — a left-perfect maximum matching computed by
    {!hopcroft_karp}. Returns [assign] with [assign.(i)] the right
    vertex of [i], or [None] when no left-perfect matching exists
    (in particular whenever [left > right]).
    @raise Invalid_argument on negative sizes. *)

val greedy_maximal : Ugraph.t -> (int * int) list
(** A maximal (not maximum) matching of an arbitrary graph; |M| lower-bounds
    any vertex cover and 2·|M| upper-bounds the minimum cover. Edges are
    taken in {!Ugraph.iter_edges} order, each vertex's newest first, so
    on [Oct.with_k2 g] (rungs added last) the matching is the n rungs. *)
