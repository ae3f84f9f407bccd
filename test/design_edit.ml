(* [edit d writes] is [d] with [writes] made after its own junctions:
   what copying a mutable design and setting the same junctions on the
   copy gave. *)
let edit d writes =
  Crossbar.Design.build ~rows:(Crossbar.Design.rows d)
    ~cols:(Crossbar.Design.cols d) ~input:(Crossbar.Design.input d)
    ~outputs:(Crossbar.Design.outputs d)
    (fun set ->
       Crossbar.Design.iter_programmed d (fun row col l -> set ~row ~col l);
       writes set)
