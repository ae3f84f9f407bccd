(* The crossbar design as it was before it became immutable: a mutable
   junction [Hashtbl] filled by [create] + [set], with a row-major order
   cached in an [Atomic] until the next [set]; and the parent's writers
   of designs: [Mapping.run] walking the [edge_literals] list,
   [Fault.inject], [Place.apply], [Pipeline.merge_diagonal] and the
   payload's design text. Kept verbatim, bar the shims that point them at
   this [Design], [wire] shared with [Crossbar.Design] so ports compare,
   [Mapping.run] taking the edge list as an argument (the graph no
   longer carries it), and the parts no test reads, as the oracle of
   test_compact's design group: the builder must give the same designs. *)

module Design = struct
  open Crossbar

  type wire = Crossbar.Design.wire = Row of int | Col of int

  (* Junction storage is sparse: real designs program O(BDD edges) devices
     on an O(n²) area, and the large staircase baselines would not even fit
     in memory densely. Unprogrammed junctions read as [Literal.Off]. *)
  type t = {
    rows : int;
    cols : int;
    cells : (int, Literal.t) Hashtbl.t;  (* key: row * cols + col *)
    input : wire;
    outputs : (string * wire) list;
    order : (int array * Literal.t array) option Atomic.t;
        (* [cells] in row-major order, as keys and literals; [None] until
           [iter_programmed] sorts them and again after every [set]. Atomic
           so a design read by several domains publishes whole arrays. *)
  }

  let check_wire ~rows ~cols = function
    | Row i ->
      if i < 0 || i >= rows then invalid_arg "Design: row port out of range"
    | Col j ->
      if j < 0 || j >= cols then invalid_arg "Design: column port out of range"

  let create ~rows ~cols ~input ~outputs =
    if rows <= 0 || cols <= 0 then invalid_arg "Design.create: empty crossbar";
    check_wire ~rows ~cols input;
    List.iter (fun (_, w) -> check_wire ~rows ~cols w) outputs;
    { rows; cols; cells = Hashtbl.create 256; input; outputs; order = Atomic.make None }

  let rows t = t.rows
  let cols t = t.cols
  let input t = t.input
  let outputs t = t.outputs

  let copy t = { t with cells = Hashtbl.copy t.cells; order = Atomic.make None }
  let key t row col = (row * t.cols) + col

  let set t ~row ~col l =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Design.set: out of range";
    if Option.is_some (Atomic.get t.order) then Atomic.set t.order None;
    match l with
    | Literal.Off -> Hashtbl.remove t.cells (key t row col)
    | Literal.On | Literal.Pos _ | Literal.Neg _ ->
      Hashtbl.replace t.cells (key t row col) l

  let get t ~row ~col =
    if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
      invalid_arg "Design.get: out of range";
    match Hashtbl.find_opt t.cells (key t row col) with
    | Some l -> l
    | None -> Literal.Off

  let check_perm name n p =
    if Array.length p <> n then
      invalid_arg (Printf.sprintf "Design.permute: %s length" name);
    let seen = Array.make n false in
    Array.iter
      (fun i ->
         if i < 0 || i >= n || seen.(i) then
           invalid_arg (Printf.sprintf "Design.permute: %s is not a permutation" name);
         seen.(i) <- true)
      p

  let permute t ~row_perm ~col_perm =
    check_perm "row_perm" t.rows row_perm;
    check_perm "col_perm" t.cols col_perm;
    let move = function
      | Row i -> Row row_perm.(i)
      | Col j -> Col col_perm.(j)
    in
    let out =
      create ~rows:t.rows ~cols:t.cols ~input:(move t.input)
        ~outputs:(List.map (fun (o, w) -> o, move w) t.outputs)
    in
    Hashtbl.iter
      (fun k l ->
         let row = k / t.cols and col = k mod t.cols in
         Hashtbl.replace out.cells
           ((row_perm.(row) * t.cols) + col_perm.(col))
           l)
      t.cells;
    out

  let semiperimeter t = t.rows + t.cols
  let max_dimension t = max t.rows t.cols
  let area t = t.rows * t.cols

  (* Stable counting sort of the parallel arrays [keys]/[lits] on
     [bucket key], a value in [0, buckets), into [keys']/[lits']. *)
  let counting_sort buckets bucket keys lits keys' lits' =
    let start = Array.make (buckets + 1) 0 in
    Array.iter (fun k -> start.(bucket k + 1) <- start.(bucket k + 1) + 1) keys;
    for b = 1 to buckets do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    Array.iteri
      (fun i k ->
         let b = bucket k in
         keys'.(start.(b)) <- k;
         lits'.(start.(b)) <- lits.(i);
         start.(b) <- start.(b) + 1)
      keys

  (* Deterministic order (row-major) so downstream output is stable:
     one counting pass by column, then a stable one by row. *)
  let row_major t =
    let n = Hashtbl.length t.cells in
    let keys = Array.make n 0 and lits = Array.make n Literal.Off in
    let i = ref 0 in
    Hashtbl.iter
      (fun k l ->
         keys.(!i) <- k;
         lits.(!i) <- l;
         incr i)
      t.cells;
    let by_col = Array.make n 0 and by_col_lits = Array.make n Literal.Off in
    counting_sort t.cols (fun k -> k mod t.cols) keys lits by_col by_col_lits;
    counting_sort t.rows (fun k -> k / t.cols) by_col by_col_lits keys lits;
    keys, lits

  let iter_programmed t f =
    let keys, lits =
      match Atomic.get t.order with
      | Some order -> order
      | None ->
        let order = row_major t in
        Atomic.set t.order (Some order);
        order
    in
    Array.iteri (fun i k -> f (k / t.cols) (k mod t.cols) lits.(i)) keys

  let count t pred =
    Hashtbl.fold (fun _ l acc -> if pred l then acc + 1 else acc) t.cells 0

  let num_programmed t = Hashtbl.length t.cells
  let num_literal_junctions t = count t (fun l -> Literal.variable l <> None)
  let num_on_junctions t = count t (fun l -> Literal.equal l Literal.On)

  let variables t =
    let module S = Set.Make (String) in
    let s =
      Hashtbl.fold
        (fun _ l acc ->
           match Literal.variable l with Some v -> S.add v acc | None -> acc)
        t.cells S.empty
    in
    S.elements s

  let delay_steps t = t.rows + 1
end

(* Where the parent's writers name [Crossbar.Design], they get the one
   above. *)
module Hashtbl_design = Design

module Crossbar = struct
  include Crossbar
  module Design = Hashtbl_design
end

module Fault = struct
  open Crossbar

  let inject design faults =
    let faulty = Design.copy design in
    List.iter
      (fun fault ->
         match fault with
         | Crossbar.Fault.Stuck_on (row, col) -> Design.set faulty ~row ~col Literal.On
         | Crossbar.Fault.Stuck_off (row, col) -> Design.set faulty ~row ~col Literal.Off)
      faults;
    faulty
end

module Mapping = struct
  open Compact

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

  let run ~edge_literals (bg : Types.bdd_graph) (labeling : Types.labeling) =
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
    let design =
      Crossbar.Design.create ~rows ~cols ~input:(wire_of bg.terminal) ~outputs
    in
    (* VH fuses. *)
    Array.iteri
      (fun v l ->
         if l = Types.VH then
           Crossbar.Design.set design ~row:row_of.(v) ~col:col_of.(v)
             Crossbar.Literal.On)
      labeling.labels;
    (* Edge assignment: place each literal at a wordline/bitline junction of
       its endpoints. *)
    List.iter
      (fun (u, v, lit) ->
         let place a b =
           Crossbar.Design.set design ~row:row_of.(a) ~col:col_of.(b) lit
         in
         match row_of.(u) >= 0, col_of.(v) >= 0, row_of.(v) >= 0, col_of.(u) >= 0 with
         | true, true, _, _ -> place u v
         | _, _, true, true -> place v u
         | _ -> invalid_arg "Mapping: unrealisable edge (labeling invalid)")
      edge_literals;
    design
end

module Place = struct
  open Crossbar
  open Compact.Place

  let apply map p d =
    let lr = Design.rows d and lc = Design.cols d in
    if Array.length p.row_map <> lr || Array.length p.col_map <> lc then
      invalid_arg "Place.apply: placement arity does not match the design";
    let prows = Defect_map.rows map and pcols = Defect_map.cols map in
    Array.iter
      (fun r ->
         if r < 0 || r >= prows then invalid_arg "Place.apply: wordline out of range")
      p.row_map;
    Array.iter
      (fun c ->
         if c < 0 || c >= pcols then invalid_arg "Place.apply: bitline out of range")
      p.col_map;
    let wire = function
      | Design.Row i -> Design.Row p.row_map.(i)
      | Design.Col j -> Design.Col p.col_map.(j)
    in
    let phys =
      Design.create ~rows:prows ~cols:pcols ~input:(wire (Design.input d))
        ~outputs:(List.map (fun (o, w) -> o, wire w) (Design.outputs d))
    in
    Design.iter_programmed d (fun i j l ->
        Design.set phys ~row:p.row_map.(i) ~col:p.col_map.(j) l);
    (* Physical truth wins over the intended programming. *)
    List.iter
      (fun f ->
         match f with
         | Crossbar.Fault.Stuck_on (r, c) ->
           if Defect_map.row_ok map r && Defect_map.col_ok map c then
             Design.set phys ~row:r ~col:c Literal.On
         | Crossbar.Fault.Stuck_off (r, c) ->
           Design.set phys ~row:r ~col:c Literal.Off)
      (Defect_map.faults map);
    (* Broken lines conduct nothing; erase anything routed across them. *)
    let dead = ref [] in
    Design.iter_programmed phys (fun r c _ ->
        if not (Defect_map.row_ok map r && Defect_map.col_ok map c) then
          dead := (r, c) :: !dead);
    List.iter (fun (r, c) -> Design.set phys ~row:r ~col:c Literal.Off) !dead;
    phys
end

module Pipeline = struct
  let merge_diagonal designs =
    if designs = [] then invalid_arg "merge_diagonal: empty list";
    let input_row d =
      match Crossbar.Design.input d with
      | Crossbar.Design.Row i -> i
      | Crossbar.Design.Col _ ->
        invalid_arg "merge_diagonal: input port must be a wordline"
    in
    (* Each block keeps its rows except the input row, which is fused into
       one shared bottom row. *)
    let total_rows =
      List.fold_left (fun acc d -> acc + Crossbar.Design.rows d - 1) 1 designs
    in
    let total_cols =
      List.fold_left (fun acc d -> acc + Crossbar.Design.cols d) 0 designs
    in
    let shared_input = total_rows - 1 in
    let outputs = ref [] in
    let row_offset = ref 0 in
    let col_offset = ref 0 in
    let merged_cells = ref [] in
    List.iter
      (fun d ->
         let rows = Crossbar.Design.rows d and cols = Crossbar.Design.cols d in
         let inp = input_row d in
         (* Global row of a block-local row: input row → shared row; rows
            after the input shift up by one. *)
         let global_row i =
           if i = inp then shared_input
           else if i < inp then !row_offset + i
           else !row_offset + i - 1
         in
         Crossbar.Design.iter_programmed d (fun i j lit ->
             merged_cells :=
               (global_row i, !col_offset + j, lit) :: !merged_cells);
         List.iter
           (fun (o, w) ->
              let w' =
                match w with
                | Crossbar.Design.Row i -> Crossbar.Design.Row (global_row i)
                | Crossbar.Design.Col j -> Crossbar.Design.Col (!col_offset + j)
              in
              outputs := (o, w') :: !outputs)
           (Crossbar.Design.outputs d);
         row_offset := !row_offset + rows - 1;
         col_offset := !col_offset + cols)
      designs;
    let merged =
      Crossbar.Design.create ~rows:total_rows ~cols:total_cols
        ~input:(Crossbar.Design.Row shared_input) ~outputs:(List.rev !outputs)
    in
    List.iter
      (fun (r, c, lit) -> Crossbar.Design.set merged ~row:r ~col:c lit)
      !merged_cells;
    merged
end

module Payload = struct
  module J = Obs.Json

  (* Non-negative integers only: rows, columns and wire indices. *)
  let rec add_int buf i =
    if i >= 10 then add_int buf (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

  let add_wire buf w =
    let tag, i =
      match w with
      | Crossbar.Design.Row i -> 'r', i
      | Crossbar.Design.Col j -> 'c', j
    in
    Buffer.add_char buf '"';
    Buffer.add_char buf tag;
    add_int buf i;
    Buffer.add_char buf '"'

  let add_json_string buf s = Buffer.add_string buf (J.to_string (J.Str s))

  (* {"rows":R,"cols":C,"input":W,"outputs":[[O,W],...],"cells":[[r,c,L],...]}
     with wires as "r4"/"c2" and cells in iter_programmed's row-major
     order, the canonical one. *)
  let add_design buf d =
    Buffer.add_string buf "{\"rows\":";
    add_int buf (Crossbar.Design.rows d);
    Buffer.add_string buf ",\"cols\":";
    add_int buf (Crossbar.Design.cols d);
    Buffer.add_string buf ",\"input\":";
    add_wire buf (Crossbar.Design.input d);
    Buffer.add_string buf ",\"outputs\":[";
    List.iteri
      (fun i (name, w) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '[';
         add_json_string buf name;
         Buffer.add_char buf ',';
         add_wire buf w;
         Buffer.add_char buf ']')
      (Crossbar.Design.outputs d);
    Buffer.add_string buf "],\"cells\":[";
    (* Each distinct literal's JSON text, rendered once. *)
    let texts = Hashtbl.create 64 in
    let text lit =
      match Hashtbl.find_opt texts lit with
      | Some s -> s
      | None ->
        let s = J.to_string (J.Str (Crossbar.Literal.to_string lit)) in
        Hashtbl.replace texts lit s;
        s
    in
    let first = ref true in
    Crossbar.Design.iter_programmed d (fun r c lit ->
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_char buf '[';
        add_int buf r;
        Buffer.add_char buf ',';
        add_int buf c;
        Buffer.add_char buf ',';
        Buffer.add_string buf (text lit);
        Buffer.add_char buf ']');
    Buffer.add_string buf "]}"

  let synth_payload ~key ~design ~report =
    (* About 19 bytes a cell on the Table-I designs. *)
    let buf =
      Buffer.create
        (512 + String.length key
         + (24 * Crossbar.Design.num_programmed design)
         + (24 * List.length (Crossbar.Design.outputs design)))
    in
    Buffer.add_string buf "\"key\":";
    add_json_string buf key;
    Buffer.add_string buf ",\"design\":";
    add_design buf design;
    Buffer.add_string buf ",\"report\":";
    Buffer.add_string buf (J.to_string (Server.Protocol.report_json report));
    Buffer.contents buf
end
