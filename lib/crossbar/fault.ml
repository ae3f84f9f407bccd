type fault = Stuck_on of int * int | Stuck_off of int * int

let inject design faults =
  Design.build_coded ~rows:(Design.rows design) ~cols:(Design.cols design)
    ~input:(Design.input design) ~outputs:(Design.outputs design)
    ~vars:(Design.vars design)
    (fun set ->
       Design.iter_coded design (fun row col c -> set ~row ~col c);
       List.iter
         (function
           | Stuck_on (row, col) -> set ~row ~col 0
           | Stuck_off (row, col) -> set ~row ~col (-1))
         faults)

let random_faults ?(seed = 0xfa01) ~rate design =
  if rate < 0. || rate > 1. then invalid_arg "Fault.random_faults: rate";
  let rng = Rng.state seed `Faults in
  let faults = ref [] in
  (* Programmed devices: the dominant failure site. *)
  Design.iter_programmed design (fun row col _ ->
      if Random.State.float rng 1. < rate then
        if Random.State.float rng 1. < 0.75 then
          faults := Stuck_off (row, col) :: !faults
        else faults := Stuck_on (row, col) :: !faults);
  (* Unprogrammed junctions can only hurt by becoming stuck-on; sample a
     matching number of sites at a tenth of the rate. *)
  let sites = Design.num_programmed design in
  let rows = Design.rows design and cols = Design.cols design in
  for _ = 1 to sites do
    if Random.State.float rng 1. < rate /. 10. then begin
      let row = Random.State.int rng rows in
      let col = Random.State.int rng cols in
      if Literal.equal (Design.get design ~row ~col) Literal.Off then
        faults := Stuck_on (row, col) :: !faults
    end
  done;
  !faults

let still_correct ?(trials = 64) ?(seed = 99) design ~inputs ~reference
    ~outputs =
  (* Exhaustive below the threshold: 64 random trials miss single-minterm
     corruptions, and fault effects are often exactly that. *)
  Verify.auto ~seed ~trials design ~inputs ~reference ~outputs = Verify.Ok

type yield_report = {
  trials : int;
  survivors : int;
  yield : float;
  mean_faults : float;
}

(* Deterministic per-trial sub-seed through the repo-wide {!Rng}
   convention: trial [k]'s faults and checks depend only on [seed] and
   [k], never on evaluation order, so a yield run is bit-for-bit
   reproducible (and trials could run in any order). *)
let trial_seed seed k salt = Rng.derive seed (k, salt)

let yield ?(seed = 0x51e1d) ?(trials = 100) ?(checks_per_trial = 32) ~rate
    design ~inputs ~reference ~outputs =
  let survivors = ref 0 in
  let total_faults = ref 0 in
  for k = 1 to trials do
    let faults =
      random_faults ~seed:(trial_seed seed k `Faults) ~rate design
    in
    total_faults := !total_faults + List.length faults;
    let faulty = inject design faults in
    if
      still_correct ~trials:checks_per_trial ~seed:(trial_seed seed k `Checks)
        faulty ~inputs ~reference ~outputs
    then incr survivors
  done;
  {
    trials;
    survivors = !survivors;
    yield = float_of_int !survivors /. float_of_int (max 1 trials);
    mean_faults = float_of_int !total_faults /. float_of_int (max 1 trials);
  }

let pp_yield ppf r =
  Format.fprintf ppf
    "yield %.1f%% (%d/%d instances correct, %.1f faults/instance)"
    (100. *. r.yield) r.survivors r.trials r.mean_faults
