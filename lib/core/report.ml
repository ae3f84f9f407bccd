type analog_summary = {
  an_worst_margin : float;
  an_max_iterations : int;
  an_max_residual : float;
  an_max_condition : float;
  an_fallbacks : int;
  an_unconverged : int;
}

type t = {
  circuit : string;
  bdd_nodes : int;
  bdd_edges : int;
  rows : int;
  cols : int;
  semiperimeter : int;
  max_dimension : int;
  area : int;
  vh_count : int;
  power_literals : int;
  delay_steps : int;
  synthesis_time : float;
  label_time : float;
  optimal : bool;
  gap : float;
  method_name : string;
  gamma : float;
  solver_path : string list;
  solver_retries : int;
  deadline_hit : bool;
  bdd_stats : Bdd.Manager.stats option;
  analog : analog_summary option;
}

let analog_of_analysis (a : Crossbar.Margin.analysis) =
  {
    an_worst_margin = a.Crossbar.Margin.worst;
    an_max_iterations = a.max_iterations;
    an_max_residual = a.max_residual;
    an_max_condition = a.max_condition;
    an_fallbacks = a.fallbacks;
    an_unconverged = a.unconverged;
  }

let with_analog r a = { r with analog = Some (analog_of_analysis a) }

(* The single home of the [solver_retries] invariant: every rung of the
   path but the last ran and lost. Constructors derive retries here and
   [check] asserts it, so call sites never recompute (or drift from) the
   relation. *)
let retries_of_path p = max 0 (List.length p - 1)

let check r =
  assert (r.solver_retries = retries_of_path r.solver_path);
  r

let rungs r = String.concat "->" r.solver_path

(* A solver path safe to serve from a cache to any future identical
   request: a single rung. A fallback means an earlier rung ran out of
   wall time or raised, which another run might not. *)
let path_pristine = function [ _ ] -> true | _ -> false

let of_design ?solver_path ?(deadline_hit = false) ?bdd_stats ~circuit
    ~bdd_graph ~labeling ~synthesis_time design =
  let gap =
    if labeling.Types.optimal then 0.
    else if labeling.objective <= 0. then 1.
    else
      min 1.
        ((labeling.objective -. labeling.lower_bound)
         /. max 1e-10 labeling.objective)
  in
  check
  {
    circuit;
    bdd_nodes = Preprocess.num_bdd_nodes bdd_graph;
    bdd_edges = Preprocess.num_bdd_edges bdd_graph;
    rows = Crossbar.Design.rows design;
    cols = Crossbar.Design.cols design;
    semiperimeter = Crossbar.Design.semiperimeter design;
    max_dimension = Crossbar.Design.max_dimension design;
    area = Crossbar.Design.area design;
    vh_count = labeling.Types.vh_count;
    power_literals = Crossbar.Design.num_literal_junctions design;
    delay_steps = Crossbar.Design.delay_steps design;
    synthesis_time;
    label_time = labeling.Types.solve_time;
    optimal = labeling.Types.optimal;
    gap;
    method_name = labeling.Types.method_name;
    gamma = labeling.Types.gamma;
    solver_path =
      (match solver_path with
       | Some p -> p
       | None -> [ labeling.Types.method_name ]);
    solver_retries =
      (match solver_path with
       | Some p -> retries_of_path p
       | None -> 0);
    deadline_hit;
    bdd_stats;
    analog = None;
  }

let header =
  Printf.sprintf "%-12s %7s %7s %6s %6s %6s %6s %9s %5s %8s %9s %5s"
    "circuit" "nodes" "edges" "rows" "cols" "S" "D" "area" "#VH" "time(s)"
    "method" "opt"

let pp_row ppf r =
  (* After watchdog fallbacks the winning method alone would hide the
     failed rungs; show the whole chain. *)
  let method_cell = if r.solver_retries > 0 then rungs r else r.method_name in
  Format.fprintf ppf "%-12s %7d %7d %6d %6d %6d %6d %9d %5d %8.3f %9s %5s"
    r.circuit r.bdd_nodes r.bdd_edges r.rows r.cols r.semiperimeter
    r.max_dimension r.area r.vh_count r.synthesis_time method_cell
    (if r.optimal then "yes" else Printf.sprintf "%.0f%%" (r.gap *. 100.))

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s (%s, gamma=%.2f):@,\
     BDD: %d nodes, %d edges@,\
     crossbar: %d x %d (S=%d, D=%d, area=%d), %d VH nodes@,\
     power: %d literal junctions; delay: %d steps@,\
     synthesis: %.3fs (labeling %.3fs), %s@]"
    r.circuit r.method_name r.gamma r.bdd_nodes r.bdd_edges r.rows r.cols
    r.semiperimeter r.max_dimension r.area r.vh_count r.power_literals
    r.delay_steps r.synthesis_time r.label_time
    (if r.optimal then "optimal"
     else Printf.sprintf "gap %.1f%%" (r.gap *. 100.));
  if r.solver_retries > 0 then
    Format.fprintf ppf "@,solver fallback: %s (%d retr%s)" (rungs r)
      r.solver_retries
      (if r.solver_retries = 1 then "y" else "ies");
  if r.deadline_hit then
    Format.fprintf ppf
      "@,DEADLINE HIT: budget exhausted, result is the degraded incumbent";
  (match r.analog with
   | None -> ()
   | Some a ->
     Format.fprintf ppf
       "@,analog: worst margin %.4f, CG <=%d iters, residual <=%.2e, cond \
        ~%.1e%s%s"
       a.an_worst_margin a.an_max_iterations a.an_max_residual
       a.an_max_condition
       (if a.an_fallbacks > 0 then
          Printf.sprintf ", %d dense fallback%s" a.an_fallbacks
            (if a.an_fallbacks = 1 then "" else "s")
        else "")
       (if a.an_unconverged > 0 then
          Printf.sprintf ", %d UNCONVERGED" a.an_unconverged
        else ""));
  match r.bdd_stats with
  | None -> ()
  | Some s ->
    let rate part whole =
      if whole = 0 then 0.
      else 100. *. float_of_int part /. float_of_int whole
    in
    Format.fprintf ppf
      "@,BDD engine: %d peak nodes, unique %.1f%% hit (%d lookups), cache \
       %.1f%% hit (%d lookups), %d growths"
      s.Bdd.Manager.peak_nodes
      (rate s.unique_hits s.unique_lookups)
      s.unique_lookups
      (rate s.cache_hits s.cache_lookups)
      s.cache_lookups s.growths;
    if s.level_swaps > 0 || s.sift_passes > 0 then
      Format.fprintf ppf
        "@,reordering: %d level swaps in %d sift passes, %d cache \
         invalidations"
        s.level_swaps s.sift_passes s.cache_invalidations
