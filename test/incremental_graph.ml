(* Graph construction as it was before [Graphs.Ugraph.build]: a mutable
   builder that adds one edge at a time and skips repeats through a
   table of edge keys, and [Compact.Preprocess.of_sbdd] numbering nodes
   through a [Hashtbl] of manager handles. Kept verbatim, bar the
   builder functions no test reads, as the oracle of test_graphs' ugraph
   group and test_compact's preprocess group: the bulk constructor must
   give every vertex the same neighbours in the same order. *)

module Ugraph = struct
  type t = {
    n : int;
    mutable m : int;
    adj : int list array;  (* reverse insertion order; reversed on read *)
    seen : (int, unit) Hashtbl.t;  (* edge keys: min * n + max *)
  }

  let create n =
    if n < 0 then invalid_arg "Ugraph.create: negative size";
    { n; m = 0; adj = Array.make (max n 1) []; seen = Hashtbl.create (4 * n + 16) }

  let num_nodes g = g.n
  let num_edges g = g.m

  let key g u v = if u < v then (u * g.n) + v else (v * g.n) + u

  let check g v =
    if v < 0 || v >= g.n then
      invalid_arg (Printf.sprintf "Ugraph: vertex %d out of range [0,%d)" v g.n)

  let add_edge g u v =
    check g u;
    check g v;
    if u <> v && not (Hashtbl.mem g.seen (key g u v)) then begin
      Hashtbl.replace g.seen (key g u v) ();
      g.adj.(u) <- v :: g.adj.(u);
      g.adj.(v) <- u :: g.adj.(v);
      g.m <- g.m + 1
    end

  let of_edges ~n es =
    let g = create n in
    List.iter (fun (u, v) -> add_edge g u v) es;
    g

  let neighbors g v =
    check g v;
    List.rev g.adj.(v)
end

type bdd_graph = {
  graph : Ugraph.t;
  edge_literals : (int * int * Crossbar.Literal.t) list;
  terminal : int;
  roots : (string * Compact.Types.root) list;
  node_names : string array;
}

let of_sbdd (sbdd : Bdd.Sbdd.t) =
  let man = sbdd.man in
  let roots_nodes = List.map snd sbdd.roots in
  let reachable = Bdd.Manager.reachable man roots_nodes in
  (* Graph ids: terminal 1 first (id 0), then internal nodes. The
     0-terminal gets no id. *)
  let ids = Hashtbl.create 1024 in
  Hashtbl.replace ids Bdd.Manager.one 0;
  let next = ref 1 in
  List.iter
    (fun n ->
       if not (Bdd.Manager.is_terminal n) then begin
         Hashtbl.replace ids n !next;
         incr next
       end)
    reachable;
  let num_nodes = !next in
  let graph = Ugraph.create num_nodes in
  let node_names = Array.make num_nodes "1" in
  let edge_literals = ref [] in
  List.iter
    (fun n ->
       if not (Bdd.Manager.is_terminal n) then begin
         let u = Hashtbl.find ids n in
         let var_name = sbdd.input_order.(Bdd.Manager.level man n) in
         node_names.(u) <- var_name;
         let add child lit =
           if child <> Bdd.Manager.zero then begin
             let v = Hashtbl.find ids child in
             Ugraph.add_edge graph u v;
             let a, b = if u < v then u, v else v, u in
             edge_literals := (a, b, lit) :: !edge_literals
           end
         in
         add (Bdd.Manager.low man n) (Crossbar.Literal.Neg var_name);
         add (Bdd.Manager.high man n) (Crossbar.Literal.Pos var_name)
       end)
    reachable;
  let roots =
    List.map
      (fun (o, root) ->
         if root = Bdd.Manager.zero then o, Compact.Types.Const_false
         else o, Compact.Types.Node (Hashtbl.find ids root))
      sbdd.roots
  in
  {
    graph;
    edge_literals = List.rev !edge_literals;
    terminal = 0;
    roots;
    node_names;
  }
