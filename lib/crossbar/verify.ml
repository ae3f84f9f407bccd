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
   with [reference] to [mismatch], in design-output order.  The input
   and output indexes are built once per call. *)
let scan d ~inputs ~reference ~outputs points mismatch =
  let n = List.length inputs in
  let in_index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace in_index v i) inputs;
  let out_index = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace out_index o i) outputs;
  let point = Array.make n false in
  let env v =
    match Hashtbl.find_opt in_index v with
    | Some i -> point.(i)
    | None ->
      invalid_arg
        (Printf.sprintf "Verify: design variable %s not a reference input" v)
  in
  let eval = Eval.evaluator d in
  let check () =
    let expected = reference point in
    List.iter
      (fun (o, got) ->
         let e =
           match Hashtbl.find_opt out_index o with
           | Some i -> expected.(i)
           | None -> invalid_arg (Printf.sprintf "Verify: unknown output %s" o)
         in
         if got <> e then
           mismatch
             {
               assignment = List.mapi (fun i v -> v, point.(i)) inputs;
               output = o;
               expected = e;
               got;
             })
      (eval env)
  in
  match points with
  | Rows ->
    for row = 0 to (1 lsl n) - 1 do
      for i = 0 to n - 1 do
        point.(i) <- row land (1 lsl i) <> 0
      done;
      check ()
    done
  | Draws (rng, trials) ->
    for _ = 1 to trials do
      for i = 0 to n - 1 do
        point.(i) <- Random.State.bool rng
      done;
      check ()
    done

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
