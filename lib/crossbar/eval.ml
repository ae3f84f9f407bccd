(* Reachability as a least fixpoint over the undirected wire/junction
   graph, [lanes] assignments at a time: every wire holds one reach bit
   per assignment, and a worklist applies
     reach(w') <- reach(w') lor (reach(w) land conducts(l))
   along each junction until nothing changes.  Designs are sparse, so a
   sweep costs O(devices) word operations per wave rather than
   O(rows × cols). *)

type t = {
  rows : int;
  start : int array;  (* wire w's junctions: start.(w) .. start.(w+1) - 1 *)
  dst : int array;  (* the wire across each junction *)
  code : int array;  (* 0 = On, 2k+1 = Pos k, 2k+2 = Neg k *)
  input : int;
}

let lanes = Sys.int_size

let number rows = function Design.Row i -> i | Design.Col j -> rows + j
let wire t w = number t.rows w

let compile d ~index =
  let rows = Design.rows d and cols = Design.cols d in
  let n = Design.num_programmed d in
  (* Edges [0, n) are the row side, filled in iter_programmed's
     row-major order; [n, 2n) the column side, bucketed by column. *)
  let start = Array.make (rows + cols + 1) 0 in
  let dst = Array.make (2 * n) 0 and code = Array.make (2 * n) 0 in
  let e = ref 0 in
  Design.iter_programmed d (fun i j l ->
      dst.(!e) <- rows + j;
      code.(!e) <-
        (match l with
         | Literal.On -> 0
         | Literal.Pos v -> (2 * index v) + 1
         | Literal.Neg v -> (2 * index v) + 2
         | Literal.Off -> assert false (* never programmed *));
      start.(i + 1) <- start.(i + 1) + 1;
      start.(rows + j + 1) <- start.(rows + j + 1) + 1;
      incr e);
  for w = 1 to rows + cols do
    start.(w) <- start.(w) + start.(w - 1)
  done;
  let fill = Array.sub start rows cols in
  for i = 0 to rows - 1 do
    for e = start.(i) to start.(i + 1) - 1 do
      let j = dst.(e) - rows in
      dst.(fill.(j)) <- i;
      code.(fill.(j)) <- code.(e);
      fill.(j) <- fill.(j) + 1
    done
  done;
  { rows; start; dst; code; input = number rows (Design.input d) }

let sweep t words ~batch =
  if batch < 1 || batch > lanes then invalid_arg "Eval.sweep: batch out of range";
  let mask = if batch = lanes then -1 else (1 lsl batch) - 1 in
  (* value.(c): the lanes in which a junction coded [c] conducts. *)
  let value = Array.make ((2 * Array.length words) + 1) (-1) in
  Array.iteri
    (fun k w ->
       value.((2 * k) + 1) <- w;
       value.((2 * k) + 2) <- lnot w)
    words;
  let wires = Array.length t.start - 1 in
  let reach = Array.make wires 0 in
  (* A FIFO ring: a wire is queued at most once at a time. *)
  let queue = Array.make wires 0 and queued = Bytes.make wires '\000' in
  let head = ref 0 and len = ref 1 in
  reach.(t.input) <- mask;
  queue.(0) <- t.input;
  Bytes.set queued t.input '\001';
  while !len > 0 do
    let w = queue.(!head) in
    head := if !head + 1 = wires then 0 else !head + 1;
    decr len;
    Bytes.set queued w '\000';
    let r = reach.(w) in
    for e = t.start.(w) to t.start.(w + 1) - 1 do
      let w' = t.dst.(e) in
      let gain = r land value.(t.code.(e)) land lnot reach.(w') in
      if gain <> 0 then begin
        reach.(w') <- reach.(w') lor gain;
        if Bytes.get queued w' = '\000' then begin
          Bytes.set queued w' '\001';
          let tail = !head + !len in
          queue.(if tail >= wires then tail - wires else tail) <- w';
          incr len
        end
      end
    done
  done;
  reach

(* The one-assignment case: variables indexed in [Design.variables]
   order, lane 0 only. *)
let sweep_one d env =
  let vars = Array.of_list (Design.variables d) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun k v -> Hashtbl.replace index v k) vars;
  let t = compile d ~index:(Hashtbl.find index) in
  t, sweep t (Array.map (fun v -> if env v then 1 else 0) vars) ~batch:1

let reachable_wires d env =
  let t, reach = sweep_one d env in
  ( Array.init t.rows (fun i -> reach.(i) land 1 = 1),
    Array.init (Design.cols d) (fun j -> reach.(t.rows + j) land 1 = 1) )

let evaluate d env =
  let t, reach = sweep_one d env in
  List.map (fun (o, w) -> o, reach.(wire t w) land 1 = 1) (Design.outputs d)

let evaluate_point d ~input_names point =
  let index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace index v i) input_names;
  let env v = point.(Hashtbl.find index v) in
  Array.of_list (List.map snd (evaluate d env))
