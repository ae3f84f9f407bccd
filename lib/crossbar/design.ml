type wire = Row of int | Col of int

(* Junction storage is sparse: real designs program O(BDD edges) devices
   on an O(n²) area, and the large staircase baselines would not even fit
   in memory densely. The programmed junctions are sorted row-major into
   flat arrays: row i's are [start.(i)] .. [start.(i + 1) - 1], columns
   ascending, each with an int code over [vars]. Unprogrammed junctions
   read as [Literal.Off]. *)
type t = {
  rows : int;
  cols : int;
  input : wire;
  outputs : (string * wire) list;
  vars : string array;  (* sorted, distinct, each on some junction *)
  lits : Literal.t array;  (* the literal of each code *)
  start : int array;
  col : int array;
  code : int array;  (* {!Literal}'s codes over [vars] *)
}

let check_wire ~rows ~cols = function
  | Row i ->
    if i < 0 || i >= rows then invalid_arg "Design: row port out of range"
  | Col j ->
    if j < 0 || j >= cols then invalid_arg "Design: column port out of range"

let check_ports ~rows ~cols ~input ~outputs =
  if rows <= 0 || cols <= 0 then invalid_arg "Design.build: empty crossbar";
  check_wire ~rows ~cols input;
  List.iter (fun (_, w) -> check_wire ~rows ~cols w) outputs

let check_cell ~rows ~cols ~row ~col =
  if row < 0 || row >= rows || col < 0 || col >= cols then
    invalid_arg "Design.build: junction out of range"

(* The first slot of each bucket once the first [n] entries, in buckets
   [bucket.(i)] in [0, buckets), are sorted by bucket; one past the last
   at [buckets]. *)
let bucket_starts buckets n bucket =
  let start = Array.make (buckets + 1) 0 in
  for i = 0 to n - 1 do
    let b = bucket.(i) + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  start

(* [v]'s place in the sorted, distinct [vars], which hold it. *)
let index_of vars v =
  let rec search lo hi =
    if lo > hi then invalid_arg "Design: variable not in the table";
    let mid = (lo + hi) / 2 in
    let c = String.compare v vars.(mid) in
    if c = 0 then mid else if c < 0 then search lo (mid - 1) else search (mid + 1) hi
  in
  search 0 (Array.length vars - 1)

let build_coded ~rows ~cols ~input ~outputs ~vars f =
  check_ports ~rows ~cols ~input ~outputs;
  let codes_in = (2 * Array.length vars) + 1 in
  (* The writes in call order. A mapped BDD graph has a wire per node
     and writes at most a fuse and two edges per node, so the first
     buffers hold every mapping and staircase without growing. *)
  let capacity = 2 * (rows + cols) in
  let wrow = ref (Array.make capacity 0) and wcol = ref (Array.make capacity 0) in
  let wcode = ref (Array.make capacity 0) and n = ref 0 in
  f (fun ~row ~col c ->
      check_cell ~rows ~cols ~row ~col;
      if c < -1 || c >= codes_in then
        invalid_arg "Design.build_coded: code out of range";
      if !n = Array.length !wrow then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        wrow := grow !wrow;
        wcol := grow !wcol;
        wcode := grow !wcode
      end;
      !wrow.(!n) <- row;
      !wcol.(!n) <- col;
      !wcode.(!n) <- c;
      incr n);
  let n = !n and wrow = !wrow and wcol = !wcol and wcode = !wcode in
  (* Row-major, each junction's writes in call order: a counting pass by
     column, then a stable one by row into [wcol]/[wcode]. *)
  let cstart = bucket_starts cols n wcol in
  let by_col_row = Array.make n 0 and by_col_code = Array.make n 0 in
  let fill = Array.sub cstart 0 cols in
  for i = 0 to n - 1 do
    let c = wcol.(i) in
    by_col_row.(fill.(c)) <- wrow.(i);
    by_col_code.(fill.(c)) <- wcode.(i);
    fill.(c) <- fill.(c) + 1
  done;
  let start = bucket_starts rows n wrow in
  let fill = Array.sub start 0 rows in
  for c = 0 to cols - 1 do
    for p = cstart.(c) to cstart.(c + 1) - 1 do
      let r = by_col_row.(p) in
      wcol.(fill.(r)) <- c;
      wcode.(fill.(r)) <- by_col_code.(p);
      fill.(r) <- fill.(r) + 1
    done
  done;
  (* The last write to a junction wins, and Off (-1) erases it. Each row
     is compacted in place and [start] moves to the kept junctions. *)
  let kept = ref 0 in
  for r = 0 to rows - 1 do
    let first = start.(r) and last = start.(r + 1) - 1 in
    start.(r) <- !kept;
    for i = first to last do
      if (i = last || wcol.(i + 1) <> wcol.(i)) && wcode.(i) >= 0 then begin
        wcol.(!kept) <- wcol.(i);
        wcode.(!kept) <- wcode.(i);
        incr kept
      end
    done
  done;
  start.(rows) <- !kept;
  let kept = !kept in
  let col = Array.sub wcol 0 kept in
  (* The table: the variables left on the junctions, sorted and without
     repeats, and each code that is left recoded over it. *)
  let left = Array.make codes_in false in
  for i = 0 to kept - 1 do
    left.(wcode.(i)) <- true
  done;
  let used = Array.make (Array.length vars) false in
  Array.iteri (fun c l -> if l && c > 0 then used.(Literal.code_variable c) <- true) left;
  let table =
    Array.of_list
      (List.sort_uniq String.compare
         (List.filteri (fun k _ -> used.(k)) (Array.to_list vars)))
  in
  let recoded =
    Array.mapi
      (fun c l ->
         if not l then -1
         else if c = 0 then 0
         else Literal.recode c (index_of table vars.(Literal.code_variable c)))
      left
  in
  {
    rows; cols; input; outputs; vars = table;
    lits = Array.init ((2 * Array.length table) + 1) (Literal.of_code table);
    start; col; code = Array.init kept (fun i -> recoded.(wcode.(i)));
  }

let build ~rows ~cols ~input ~outputs f =
  check_ports ~rows ~cols ~input ~outputs;
  let writes = ref [] in
  f (fun ~row ~col l ->
      check_cell ~rows ~cols ~row ~col;
      writes := (row, col, l) :: !writes);
  let writes = List.rev !writes in
  let vars =
    Array.of_list
      (List.sort_uniq String.compare
         (List.filter_map (fun (_, _, l) -> Literal.variable l) writes))
  in
  build_coded ~rows ~cols ~input ~outputs ~vars (fun set ->
      List.iter
        (fun (row, col, l) ->
           set ~row ~col
             (match l with
              | Literal.Off -> -1
              | Literal.On -> 0
              | Literal.Pos v -> Literal.pos_code (index_of vars v)
              | Literal.Neg v -> Literal.neg_code (index_of vars v)))
        writes)

let rows t = t.rows
let cols t = t.cols
let input t = t.input
let outputs t = t.outputs
let vars t = Array.copy t.vars

let get t ~row ~col =
  if row < 0 || row >= t.rows || col < 0 || col >= t.cols then
    invalid_arg "Design.get: out of range";
  (* Binary search of the row's ascending columns. *)
  let rec search lo hi =
    if lo > hi then Literal.Off
    else
      let mid = (lo + hi) / 2 in
      let c = t.col.(mid) in
      if c = col then t.lits.(t.code.(mid))
      else if c < col then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search t.start.(row) (t.start.(row + 1) - 1)

let iter_coded t f =
  for i = 0 to t.rows - 1 do
    for e = t.start.(i) to t.start.(i + 1) - 1 do
      f i t.col.(e) t.code.(e)
    done
  done

let iter_programmed t f = iter_coded t (fun i j c -> f i j t.lits.(c))

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
  build_coded ~rows:t.rows ~cols:t.cols ~input:(move t.input)
    ~outputs:(List.map (fun (o, w) -> o, move w) t.outputs)
    ~vars:t.vars
    (fun set ->
       iter_coded t (fun i j c -> set ~row:row_perm.(i) ~col:col_perm.(j) c))

let semiperimeter t = t.rows + t.cols
let max_dimension t = max t.rows t.cols
let area t = t.rows * t.cols

let count t pred =
  Array.fold_left (fun acc c -> if pred c then acc + 1 else acc) 0 t.code

let num_programmed t = Array.length t.code
let num_literal_junctions t = count t (fun c -> c > 0)
let num_on_junctions t = count t (fun c -> c = 0)
let variables t = Array.to_list t.vars
let delay_steps t = t.rows + 1

let pp ppf t =
  let cell_width =
    Array.fold_left
      (fun w c -> max w (String.length (Literal.to_string t.lits.(c))))
      1 t.code
  in
  let pad s = s ^ String.make (cell_width - String.length s) ' ' in
  let row_marker i =
    let tags = ref [] in
    (match t.input with Row r when r = i -> tags := "IN" :: !tags | _ -> ());
    List.iter
      (fun (o, w) -> match w with Row r when r = i -> tags := o :: !tags | _ -> ())
      t.outputs;
    if !tags = [] then "" else " <- " ^ String.concat "," !tags
  in
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.rows - 1 do
    Format.fprintf ppf "%3d | " i;
    for j = 0 to t.cols - 1 do
      Format.fprintf ppf "%s " (pad (Literal.to_string (get t ~row:i ~col:j)))
    done;
    Format.fprintf ppf "|%s@," (row_marker i)
  done;
  let col_tags = ref [] in
  (match t.input with
   | Col c -> col_tags := (c, "IN") :: !col_tags
   | Row _ -> ());
  List.iter
    (fun (o, w) ->
       match w with Col c -> col_tags := (c, o) :: !col_tags | Row _ -> ())
    t.outputs;
  List.iter
    (fun (c, tag) -> Format.fprintf ppf "col %d: %s@," c tag)
    (List.rev !col_tags);
  Format.fprintf ppf "@]"
