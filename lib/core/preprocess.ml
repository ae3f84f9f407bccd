let of_sbdd (sbdd : Bdd.Sbdd.t) =
  let man = sbdd.man in
  let roots_nodes = List.map snd sbdd.roots in
  let reachable = Bdd.Manager.reachable man roots_nodes in
  (* Graph ids by manager handle (handles are dense below [allocated]):
     terminal 1 first (id 0), then internal nodes. The 0-terminal gets
     no id. *)
  let ids = Array.make (Bdd.Manager.allocated man) (-1) in
  ids.(Bdd.Manager.one) <- 0;
  let next = ref 1 in
  List.iter
    (fun n ->
       if not (Bdd.Manager.is_terminal n) then begin
         ids.(n) <- !next;
         incr next
       end)
    reachable;
  let num_nodes = !next in
  let node_names = Array.make num_nodes "1" in
  let neg = Array.map (fun v -> Crossbar.Literal.Neg v) sbdd.input_order
  and pos = Array.map (fun v -> Crossbar.Literal.Pos v) sbdd.input_order in
  let edge_literals = ref [] in
  let graph =
    Graphs.Ugraph.build ~n:num_nodes (fun add_edge ->
        List.iter
          (fun n ->
             if not (Bdd.Manager.is_terminal n) then begin
               let u = ids.(n) in
               let level = Bdd.Manager.level man n in
               node_names.(u) <- sbdd.input_order.(level);
               let add child lit =
                 if child <> Bdd.Manager.zero then begin
                   let v = ids.(child) in
                   add_edge u v;
                   let a, b = if u < v then u, v else v, u in
                   edge_literals := (a, b, lit) :: !edge_literals
                 end
               in
               add (Bdd.Manager.low man n) neg.(level);
               add (Bdd.Manager.high man n) pos.(level)
             end)
          reachable)
  in
  let roots =
    List.map
      (fun (o, root) ->
         if root = Bdd.Manager.zero then o, Types.Const_false
         else o, Types.Node ids.(root))
      sbdd.roots
  in
  {
    Types.graph;
    edge_literals = List.rev !edge_literals;
    terminal = 0;
    roots;
    node_names;
  }

let num_bdd_nodes (bg : Types.bdd_graph) = Graphs.Ugraph.num_nodes bg.graph
let num_bdd_edges (bg : Types.bdd_graph) = Graphs.Ugraph.num_edges bg.graph
