(** Graphviz export of BDDs, for debugging and documentation. *)

val sbdd : Sbdd.t -> string
(** DOT source: solid edges for then-branches, dashed for else-branches,
    boxes for terminals, one labelled arrow per output root. Node [nK]
    is the K-th node in depth-first discovery order from the roots, so
    one diagram gives one text whatever handles its manager allocated. *)

val write_file : string -> Sbdd.t -> unit
