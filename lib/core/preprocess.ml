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
  (* At most two edges per internal node; [len] fills [edges]. *)
  let edges = Array.make (6 * (num_nodes - 1)) 0 and len = ref 0 in
  let graph =
    Graphs.Ugraph.build ~n:num_nodes (fun add_edge ->
        List.iter
          (fun n ->
             if not (Bdd.Manager.is_terminal n) then begin
               let u = ids.(n) in
               let level = Bdd.Manager.level man n in
               node_names.(u) <- sbdd.input_order.(level);
               let add child code =
                 if child <> Bdd.Manager.zero then begin
                   let v = ids.(child) in
                   add_edge u v;
                   edges.(!len) <- min u v;
                   edges.(!len + 1) <- max u v;
                   edges.(!len + 2) <- code;
                   len := !len + 3
                 end
               in
               add (Bdd.Manager.low man n) (Crossbar.Literal.neg_code level);
               add (Bdd.Manager.high man n) (Crossbar.Literal.pos_code level)
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
    inputs = Array.copy sbdd.input_order;
    edges = Array.sub edges 0 !len;
    terminal = 0;
    roots;
    node_names;
  }

let num_bdd_nodes (bg : Types.bdd_graph) = Graphs.Ugraph.num_nodes bg.graph
let num_bdd_edges (bg : Types.bdd_graph) = Graphs.Ugraph.num_edges bg.graph
