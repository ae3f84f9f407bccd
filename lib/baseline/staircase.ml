let of_graph (bg : Compact.Types.bdd_graph) =
  let n = Graphs.Ugraph.num_nodes bg.graph in
  (* Row order: roots first, terminal last (bottom wordline), mirroring
     the staircase layout that grows toward the top-right corner. Columns
     follow the same order minus the terminal. *)
  let order = Array.make n (-1) in
  let next = ref 0 in
  let assign v =
    if order.(v) < 0 then begin
      order.(v) <- !next;
      incr next
    end
  in
  List.iter
    (fun (_, root) ->
       match root with
       | Compact.Types.Node v -> if v <> bg.terminal then assign v
       | Compact.Types.Const_false -> ())
    bg.roots;
  for v = 0 to n - 1 do
    if v <> bg.terminal then assign v
  done;
  assign bg.terminal;
  let row_of = order in
  (* Bitlines: same order, skipping the terminal. *)
  let col_of = Array.make n (-1) in
  let next_col = ref 0 in
  let by_row = Array.make n (-1) in
  Array.iteri (fun v r -> by_row.(r) <- v) row_of;
  Array.iter
    (fun v ->
       if v >= 0 && v <> bg.terminal then begin
         col_of.(v) <- !next_col;
         incr next_col
       end)
    by_row;
  let const_rows =
    List.filter_map
      (fun (o, r) ->
         match r with
         | Compact.Types.Const_false -> Some o
         | Compact.Types.Node _ -> None)
      bg.roots
  in
  let extra = List.length const_rows in
  let rows = n + extra in
  let cols = max !next_col 1 in
  let const_row_of = List.mapi (fun i o -> o, n + i) const_rows in
  let outputs =
    List.map
      (fun (o, r) ->
         match r with
         | Compact.Types.Node v -> o, Crossbar.Design.Row row_of.(v)
         | Compact.Types.Const_false ->
           o, Crossbar.Design.Row (List.assoc o const_row_of))
      bg.roots
  in
  Crossbar.Design.build_coded ~rows ~cols
    ~input:(Crossbar.Design.Row row_of.(bg.terminal))
    ~outputs ~vars:bg.inputs
    (fun set ->
       (* Diagonal fuses for every node that owns a bitline. *)
       for v = 0 to n - 1 do
         if col_of.(v) >= 0 then set ~row:row_of.(v) ~col:col_of.(v) 0
       done;
       (* Edges: the terminal has no bitline, so orient those junctions
          onto the parent's bitline; otherwise use (row of u, col of v). *)
       let e = bg.edges in
       for i = 0 to (Array.length e / 3) - 1 do
         let u = e.(3 * i) and v = e.((3 * i) + 1) in
         let r, c = if col_of.(v) >= 0 then u, v else v, u in
         set ~row:row_of.(r) ~col:col_of.(c) e.((3 * i) + 2)
       done)

type result = {
  designs : Crossbar.Design.t list;
  merged : Crossbar.Design.t;
  total_bdd_nodes : int;
  total_bdd_edges : int;
  synthesis_time : float;
}

let synthesize ?order ?(node_limit = max_int) netlist =
  let start = Obs.Clock.now () in
  let sbdds = Bdd.Sbdd.of_netlist_separate ?order ~node_limit netlist in
  let graphs = List.map Compact.Preprocess.of_sbdd sbdds in
  let designs = List.map of_graph graphs in
  let total_bdd_nodes =
    List.fold_left
      (fun acc bg -> acc + Compact.Preprocess.num_bdd_nodes bg)
      0 graphs
  in
  let total_bdd_edges =
    List.fold_left
      (fun acc bg -> acc + Compact.Preprocess.num_bdd_edges bg)
      0 graphs
  in
  let merged = Compact.Pipeline.merge_diagonal designs in
  { designs; merged; total_bdd_nodes; total_bdd_edges;
    synthesis_time = Obs.Clock.now () -. start }
