module Defect_map = Crossbar.Defect_map
module Design = Crossbar.Design
module Literal = Crossbar.Literal

type t = { row_map : int array; col_map : int array }

(* Physical lines offered to the matcher: broken lines never, spare lines
   only on request, in ascending order so that the first candidate on a
   defect-free array is the identity. *)
let usable_lines map ~use_spares =
  let rows = Defect_map.rows map and cols = Defect_map.cols map in
  let last_row = rows - 1 - if use_spares then 0 else Defect_map.spare_rows map in
  let last_col = cols - 1 - if use_spares then 0 else Defect_map.spare_cols map in
  let keep ok last n = List.filter (fun i -> i <= last && ok i) (List.init n Fun.id) in
  ( Array.of_list (keep (Defect_map.row_ok map) last_row rows),
    Array.of_list (keep (Defect_map.col_ok map) last_col cols) )

(* Junction faults grouped per physical line, broken lines excluded (a
   broken line conducts nothing, so its stuck devices are moot). *)
let fault_tables map =
  let row_faults = Array.make (Defect_map.rows map) [] in
  let col_faults = Array.make (Defect_map.cols map) [] in
  List.iter
    (fun f ->
       let r, c, s =
         match f with
         | Crossbar.Fault.Stuck_on (r, c) -> r, c, Defect_map.Stuck_on
         | Crossbar.Fault.Stuck_off (r, c) -> r, c, Defect_map.Stuck_off
       in
       if Defect_map.row_ok map r && Defect_map.col_ok map c then begin
         row_faults.(r) <- (c, s) :: row_faults.(r);
         col_faults.(c) <- (r, s) :: col_faults.(c)
       end)
    (Defect_map.faults map);
  row_faults, col_faults

let lit_fits lit = function
  | Defect_map.Good -> true
  | Defect_map.Stuck_on -> Literal.equal lit Literal.On
  | Defect_map.Stuck_off -> Literal.equal lit Literal.Off

(* The sneak-path guard: unused intact lines chained by stuck-on devices
   must not connect two distinct used lines, or the spare region bridges
   wordlines the logical design keeps apart. Components of unused lines
   (edges: stuck-on junctions between two unused lines) are traversed;
   a component attached through stuck-on devices to two different used
   lines is a hazard. *)
let no_spare_bridge map ~row_used ~col_used =
  let rows = Defect_map.rows map in
  let cols = Defect_map.cols map in
  (* union-find over rows (ids 0..rows-1) and cols (ids rows..rows+cols-1) *)
  let parent = Array.init (rows + cols) Fun.id in
  let rec find x = if parent.(x) = x then x else begin
      parent.(x) <- find parent.(x);
      parent.(x)
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let attachments = Hashtbl.create 16 in (* component root -> used-line id *)
  let ok = ref true in
  let attach comp used_line =
    match Hashtbl.find_opt attachments comp with
    | None -> Hashtbl.replace attachments comp used_line
    | Some l -> if l <> used_line then ok := false
  in
  (* First pass: union unused-unused stuck-on junctions. *)
  List.iter
    (fun f ->
       match f with
       | Crossbar.Fault.Stuck_on (r, c)
         when Defect_map.row_ok map r && Defect_map.col_ok map c
              && (not row_used.(r)) && not col_used.(c) ->
         union r (rows + c)
       | _ -> ())
    (Defect_map.faults map);
  (* Second pass: attachments of components to used lines. *)
  List.iter
    (fun f ->
       match f with
       | Crossbar.Fault.Stuck_on (r, c)
         when Defect_map.row_ok map r && Defect_map.col_ok map c ->
         (match row_used.(r), col_used.(c) with
          | true, false -> attach (find (rows + c)) r
          | false, true -> attach (find r) (rows + c)
          | _ -> ())
       | _ -> ())
    (Defect_map.faults map);
  !ok

let inverse ~size lines =
  let inv = Array.make size (-1) in
  Array.iteri (fun logical physical -> inv.(physical) <- logical) lines;
  inv

let full_check map d sigma pi =
  let rinv = inverse ~size:(Defect_map.rows map) sigma in
  let pinv = inverse ~size:(Defect_map.cols map) pi in
  let junctions_ok =
    List.for_all
      (fun f ->
         let r, c, s =
           match f with
           | Crossbar.Fault.Stuck_on (r, c) -> r, c, Defect_map.Stuck_on
           | Crossbar.Fault.Stuck_off (r, c) -> r, c, Defect_map.Stuck_off
         in
         if not (Defect_map.row_ok map r && Defect_map.col_ok map c) then true
         else
           match rinv.(r), pinv.(c) with
           | i, j when i >= 0 && j >= 0 ->
             lit_fits (Design.get d ~row:i ~col:j) s
           | _ -> true (* used-unused pairs are judged by the bridge guard *))
      (Defect_map.faults map)
  in
  junctions_ok
  && no_spare_bridge map
       ~row_used:(Array.map (fun i -> i >= 0) rinv)
       ~col_used:(Array.map (fun j -> j >= 0) pinv)

let compatible map p d =
  Array.length p.row_map = Design.rows d
  && Array.length p.col_map = Design.cols d
  && full_check map d p.row_map p.col_map

let find ?(use_spares = false) ?(respect_faults = true) ?(max_leaves = 2000)
    map d =
  let lr = Design.rows d and lc = Design.cols d in
  let urows, ucols = usable_lines map ~use_spares in
  if Array.length urows < lr || Array.length ucols < lc then None
  else begin
    let order_preserving lines k = Array.init k (fun i -> lines.(i)) in
    let sigma0 = order_preserving urows lr in
    let pi0 = order_preserving ucols lc in
    if not respect_faults then Some { row_map = sigma0; col_map = pi0 }
    else begin
      let row_faults, col_faults = fault_tables map in
      (* Row i fits physical row r under column placement pinv when every
         faulty device of r that lies under a used column agrees with the
         literal routed there. *)
      let row_fits pinv i r =
        List.for_all
          (fun (c, s) ->
             let j = pinv.(c) in
             j < 0 || lit_fits (Design.get d ~row:i ~col:j) s)
          row_faults.(r)
      in
      let col_fits rinv j c =
        List.for_all
          (fun (r, s) ->
             let i = rinv.(r) in
             i < 0 || lit_fits (Design.get d ~row:i ~col:j) s)
          col_faults.(c)
      in
      let match_rows pinv =
        Graphs.Matching.perfect_bipartite ~left:lr ~right:(Array.length urows)
          ~compatible:(fun i k -> row_fits pinv i urows.(k))
        |> Option.map (Array.map (fun k -> urows.(k)))
      in
      let match_cols rinv =
        Graphs.Matching.perfect_bipartite ~left:lc ~right:(Array.length ucols)
          ~compatible:(fun j k -> col_fits rinv j ucols.(k))
        |> Option.map (Array.map (fun k -> ucols.(k)))
      in
      let accept sigma pi =
        if full_check map d sigma pi then Some { row_map = sigma; col_map = pi }
        else None
      in
      let prows = Defect_map.rows map and pcols = Defect_map.cols map in
      (* Stage 1: order-preserving (the identity on a perfect array). *)
      match accept sigma0 pi0 with
      | Some p -> Some p
      | None ->
        (* Stage 2: alternating matching fixpoint. *)
        let rec alternate pi iters =
          if iters = 0 then None
          else
            match match_rows (inverse ~size:pcols pi) with
            | None -> None
            | Some sigma ->
              (match match_cols (inverse ~size:prows sigma) with
               | None -> None
               | Some pi' ->
                 (match accept sigma pi' with
                  | Some p -> Some p
                  | None -> if pi' = pi then None else alternate pi' (iters - 1)))
        in
        (match alternate pi0 5 with
         | Some p -> Some p
         | None ->
           (* Stage 3: backtracking over row assignments, exact column
              matching at each leaf. Most-constrained rows first. *)
           let programmed = Array.make lr 0 in
           let fuses = Array.make lr 0 in
           Design.iter_programmed d (fun i _ l ->
               programmed.(i) <- programmed.(i) + 1;
               if Literal.equal l Literal.On then fuses.(i) <- fuses.(i) + 1);
           let ucol_set = Array.make pcols false in
           Array.iter (fun c -> ucol_set.(c) <- true) ucols;
           let col_slack = Array.length ucols - lc in
           (* Necessary conditions for logical row i on physical row r,
              independent of the eventual column placement. *)
           let row_weak i r =
             let off = ref 0 and on = ref 0 in
             List.iter
               (fun (c, s) ->
                  if ucol_set.(c) then
                    match s with
                    | Defect_map.Stuck_off -> incr off
                    | Defect_map.Stuck_on -> incr on
                    | Defect_map.Good -> ())
               row_faults.(r);
             programmed.(i) <= Array.length ucols - !off
             && (col_slack > 0 || !on <= fuses.(i))
           in
           let order =
             List.sort
               (fun a b -> compare programmed.(b) programmed.(a))
               (List.init lr Fun.id)
           in
           let sigma = Array.make lr (-1) in
           let taken = Array.make prows false in
           let leaves = ref 0 in
           (* Interior nodes need their own budget: a search that dies
              deep in the tree before completing any assignment never
              increments [leaves] yet can churn exponentially. *)
           let nodes = ref 0 in
           let node_budget = max_leaves * 100 in
           let rec assign = function
             | [] ->
               incr leaves;
               (match match_cols (inverse ~size:prows sigma) with
                | None -> None
                | Some pi -> accept sigma pi)
             | i :: rest ->
               let rec try_rows k =
                 incr nodes;
                 if
                   k >= Array.length urows
                   || !leaves >= max_leaves
                   || !nodes > node_budget
                 then None
                 else
                   let r = urows.(k) in
                   if taken.(r) || not (row_weak i r) then try_rows (k + 1)
                   else begin
                     sigma.(i) <- r;
                     taken.(r) <- true;
                     match assign rest with
                     | Some p -> Some p
                     | None ->
                       sigma.(i) <- -1;
                       taken.(r) <- false;
                       try_rows (k + 1)
                   end
               in
               try_rows 0
           in
           assign order)
    end
  end

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
  (* The design's junctions, then physical truth over the intended
     programming; broken lines conduct nothing, so whatever would be
     routed across them is never written. *)
  let live r c = Defect_map.row_ok map r && Defect_map.col_ok map c in
  Design.build_coded ~rows:prows ~cols:pcols ~input:(wire (Design.input d))
    ~outputs:(List.map (fun (o, w) -> o, wire w) (Design.outputs d))
    ~vars:(Design.vars d)
    (fun set ->
       let set ~row ~col c = if live row col then set ~row ~col c in
       Design.iter_coded d (fun i j c ->
           set ~row:p.row_map.(i) ~col:p.col_map.(j) c);
       List.iter
         (function
           | Crossbar.Fault.Stuck_on (r, c) -> set ~row:r ~col:c 0
           | Crossbar.Fault.Stuck_off (r, c) -> set ~row:r ~col:c (-1))
         (Defect_map.faults map))

let pp ppf p =
  let line l = String.concat "," (List.map string_of_int (Array.to_list l)) in
  Format.fprintf ppf "rows -> [%s]; cols -> [%s]" (line p.row_map)
    (line p.col_map)

(* ------------------------------------------------------------------ *)
(* Electrical re-placement (variation hardening) *)

let identity d =
  {
    row_map = Array.init (Design.rows d) Fun.id;
    col_map = Array.init (Design.cols d) Fun.id;
  }

let apply_permutation p d =
  Design.permute d ~row_perm:p.row_map ~col_perm:p.col_map

let margin_candidates d =
  let rows = Design.rows d and cols = Design.cols d in
  let idn n = Array.init n Fun.id in
  let rev n = Array.init n (fun i -> n - 1 - i) in
  (* Permutation packing [ports] (dedup, order kept) at indices 0..,
     remaining lines after them in their original order. Read paths then
     cross the fewest wire segments between ports. *)
  let pack n ports =
    let seen = Array.make n false in
    let order = ref [] in
    List.iter
      (fun i ->
         if not seen.(i) then begin
           seen.(i) <- true;
           order := i :: !order
         end)
      ports;
    for i = 0 to n - 1 do
      if not seen.(i) then order := i :: !order
    done;
    let order = Array.of_list (List.rev !order) in
    (* order.(k) is the logical line placed at physical index k. *)
    let perm = Array.make n 0 in
    Array.iteri (fun k l -> perm.(l) <- k) order;
    perm
  in
  let port_wires = Design.input d :: List.map snd (Design.outputs d) in
  let port_rows =
    List.filter_map
      (function Design.Row i -> Some i | Design.Col _ -> None)
      port_wires
  and port_cols =
    List.filter_map
      (function Design.Col j -> Some j | Design.Row _ -> None)
      port_wires
  in
  let mk label row_map col_map = label, { row_map; col_map } in
  let cands =
    [ mk "identity" (idn rows) (idn cols);
      mk "rev-rows" (rev rows) (idn cols);
      mk "rev-cols" (idn rows) (rev cols) ]
    @ (if List.length port_rows > 1 then
         [ mk "pack-port-rows" (pack rows port_rows) (idn cols);
           mk "pack-port-rows-rev-cols" (pack rows port_rows) (rev cols) ]
       else [])
    @
    if List.length port_cols > 1 then
      [ mk "pack-port-cols" (idn rows) (pack cols port_cols) ]
    else []
  in
  (* Prune duplicates (a reversal on one line is the identity, packing
     already-adjacent ports changes nothing, ...). *)
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (_, p) ->
       let key = (Array.to_list p.row_map, Array.to_list p.col_map) in
       if Hashtbl.mem seen key then false
       else begin
         Hashtbl.replace seen key ();
         true
       end)
    cands
