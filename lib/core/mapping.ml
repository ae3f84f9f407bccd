let has_h = function Types.H | Types.VH -> true | Types.V -> false
let has_v = function Types.V | Types.VH -> true | Types.H -> false

(* Deterministic layout. Rows: roots first (in output order), then other
   H-nodes by id, the terminal last (bottom-most wordline), then one extra
   row per constant-0 output. Columns: by node id. *)
let layout (bg : Types.bdd_graph) (labeling : Types.labeling) =
  let n = Graphs.Ugraph.num_nodes bg.graph in
  if Array.length labeling.labels <> n then
    invalid_arg "Mapping: labeling does not match graph";
  (match Types.check_labeling bg labeling.labels with
   | Ok () -> ()
   | Error e -> invalid_arg ("Mapping: " ^ e));
  let labels = labeling.labels in
  let row_of = Array.make n (-1) in
  let col_of = Array.make n (-1) in
  let next_row = ref 0 in
  let assign_row v =
    if has_h labels.(v) && row_of.(v) < 0 then begin
      row_of.(v) <- !next_row;
      incr next_row
    end
  in
  (* Root wordlines on top. *)
  List.iter
    (fun (_, root) ->
       match root with
       | Types.Node v -> if v <> bg.terminal then assign_row v
       | Types.Const_false -> ())
    bg.roots;
  for v = 0 to n - 1 do
    if v <> bg.terminal then assign_row v
  done;
  assign_row bg.terminal;
  let const_false_rows =
    List.filter_map
      (fun (o, root) ->
         match root with
         | Types.Const_false ->
           let r = !next_row in
           incr next_row;
           Some (o, r)
         | Types.Node _ -> None)
      bg.roots
  in
  let next_col = ref 0 in
  for v = 0 to n - 1 do
    if has_v labels.(v) then begin
      col_of.(v) <- !next_col;
      incr next_col
    end
  done;
  row_of, col_of, !next_row, !next_col, const_false_rows

let run (bg : Types.bdd_graph) (labeling : Types.labeling) =
  let row_of, col_of, rows, cols, const_false_rows = layout bg labeling in
  (* A crossbar needs at least one wire of each kind even if every node
     carries only the other label (e.g. the single-node graph of the
     constant-1 function). *)
  let cols = max cols 1 in
  let rows = max rows 1 in
  let wire_of v =
    if row_of.(v) >= 0 then Crossbar.Design.Row row_of.(v)
    else Crossbar.Design.Col col_of.(v)
  in
  let outputs =
    List.map
      (fun (o, root) ->
         match root with
         | Types.Node v -> o, wire_of v
         | Types.Const_false ->
           o, Crossbar.Design.Row (List.assoc o const_false_rows))
      bg.roots
  in
  (* VH fuses, then each edge's literal at a wordline/bitline junction of
     its endpoints. *)
  Crossbar.Design.build_coded ~rows ~cols ~input:(wire_of bg.terminal)
    ~outputs ~vars:bg.inputs (fun set ->
        Array.iteri
          (fun v l ->
             if l = Types.VH then set ~row:row_of.(v) ~col:col_of.(v) 0)
          labeling.labels;
        let e = bg.edges in
        for i = 0 to (Array.length e / 3) - 1 do
          let u = e.(3 * i) and v = e.((3 * i) + 1) and code = e.((3 * i) + 2) in
          if row_of.(u) >= 0 && col_of.(v) >= 0 then
            set ~row:row_of.(u) ~col:col_of.(v) code
          else if row_of.(v) >= 0 && col_of.(u) >= 0 then
            set ~row:row_of.(v) ~col:col_of.(u) code
          else invalid_arg "Mapping: unrealisable edge (labeling invalid)"
        done)
