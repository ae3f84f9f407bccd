type wire = Row of int | Col of int

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

let pp ppf t =
  let cell_width =
    Hashtbl.fold
      (fun _ l w -> max w (String.length (Literal.to_string l)))
      t.cells 1
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
