type counterexample = {
  assignment : (string * bool) list;
  output : string;
  expected : bool;
  got : bool;
}

type outcome = Ok | Failed of counterexample

exception Found of counterexample

(* The assignments a check visits, in order: every row of the [2^n]
   table (bit [i] of the row is input [i]), or [trials] draws from a
   seeded stream. *)
type points = Rows | Draws of Random.State.t * int

(* Evaluate [d] at each point and pass every output that disagrees
   with [reference] to [mismatch], in design-output order.  The design
   is compiled once, which checks the preconditions before the first
   point: every design variable is a reference input and every design
   output a reference output.  Points fill the lanes of one sweep in
   order; after the sweep the lanes are checked in that order, so
   [reference] sees the same points, in the same order, as one
   evaluation per point would give it. *)
let scan d ~inputs ~reference ~outputs points mismatch =
  let n = List.length inputs in
  let in_index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace in_index v i) inputs;
  let out_index = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace out_index o i) outputs;
  let compiled =
    Eval.compile d ~index:(fun v ->
        match Hashtbl.find_opt in_index v with
        | Some i -> i
        | None ->
          invalid_arg
            (Printf.sprintf "Verify: design variable %s not a reference input"
               v))
  in
  let checks =
    List.map
      (fun (o, w) ->
         match Hashtbl.find_opt out_index o with
         | Some i -> o, Eval.wire compiled w, i
         | None -> invalid_arg (Printf.sprintf "Verify: unknown output %s" o))
      (Design.outputs d)
  in
  let point = Array.make n false in
  let words = Array.make n 0 in
  let check reach lane =
    for i = 0 to n - 1 do
      point.(i) <- (words.(i) lsr lane) land 1 = 1
    done;
    let expected = reference point in
    List.iter
      (fun (o, w, i) ->
         let got = (reach.(w) lsr lane) land 1 = 1 in
         let e = expected.(i) in
         if got <> e then
           mismatch
             {
               assignment = List.mapi (fun i v -> v, point.(i)) inputs;
               output = o;
               expected = e;
               got;
             })
      checks
  in
  (* [next k] writes the [k]-th point into [point]. *)
  let run total next =
    let base = ref 0 in
    while !base < total do
      let batch = min Eval.lanes (total - !base) in
      Array.fill words 0 n 0;
      for lane = 0 to batch - 1 do
        next (!base + lane);
        for i = 0 to n - 1 do
          if point.(i) then words.(i) <- words.(i) lor (1 lsl lane)
        done
      done;
      let reach = Eval.sweep compiled words ~batch in
      for lane = 0 to batch - 1 do
        check reach lane
      done;
      base := !base + batch
    done
  in
  match points with
  | Rows ->
    run (1 lsl n) (fun row ->
        for i = 0 to n - 1 do
          point.(i) <- row land (1 lsl i) <> 0
        done)
  | Draws (rng, trials) ->
    run trials (fun _ ->
        for i = 0 to n - 1 do
          point.(i) <- Random.State.bool rng
        done)

let first_failure d ~inputs ~reference ~outputs points =
  match
    scan d ~inputs ~reference ~outputs points (fun cex -> raise (Found cex))
  with
  | () -> Ok
  | exception Found cex -> Failed cex

let exhaustive_threshold = 12

(* Exhaustive up to the threshold, else [trials] draws salted by [salt]. *)
let auto_points ~seed ~trials salt inputs =
  if List.length inputs <= exhaustive_threshold then Rows
  else Draws (Rng.state seed salt, trials)

let against_table d ~reference =
  first_failure d
    ~inputs:(Logic.Truth_table.inputs reference)
    ~reference:(Logic.Truth_table.eval reference)
    ~outputs:(Logic.Truth_table.outputs reference)
    Rows

let exhaustive d ~inputs ~reference ~outputs =
  first_failure d ~inputs ~reference ~outputs Rows

let random ?(seed = Rng.default_seed) ~trials d ~inputs ~reference ~outputs =
  first_failure d ~inputs ~reference ~outputs
    (Draws (Rng.state seed `Verify_random, trials))

let auto ?(seed = Rng.default_seed) ~trials d ~inputs ~reference ~outputs =
  first_failure d ~inputs ~reference ~outputs
    (auto_points ~seed ~trials `Verify_random inputs)

let per_output ?(seed = Rng.default_seed) ?(trials = 256) d ~inputs ~reference
    ~outputs =
  let failures = Hashtbl.create 8 in
  scan d ~inputs ~reference ~outputs
    (auto_points ~seed ~trials `Verify_per_output inputs)
    (fun cex ->
       if not (Hashtbl.mem failures cex.output) then
         Hashtbl.replace failures cex.output cex);
  List.map (fun (o, _) -> o, Hashtbl.find_opt failures o) (Design.outputs d)

let pp_counterexample ppf cex =
  Format.fprintf ppf "output %s: expected %b, got %b under {%s}" cex.output
    cex.expected cex.got
    (String.concat ", "
       (List.map
          (fun (v, b) -> Printf.sprintf "%s=%d" v (if b then 1 else 0))
          cex.assignment))
