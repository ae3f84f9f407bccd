type config = {
  time_limit : float;
  bdd_node_limit : int;
  max_graph_nodes : int;
  verify_designs : bool;
  jobs : int;
}

let default_config =
  {
    time_limit = 5.0;
    bdd_node_limit = 2_000_000;
    max_graph_nodes = 200_000;
    verify_designs = true;
    jobs = Parallel.default_jobs ();
  }

let quick_config =
  {
    time_limit = 1.0;
    bdd_node_limit = 200_000;
    max_graph_nodes = 20_000;
    verify_designs = false;
    jobs = Parallel.default_jobs ();
  }

(* Per-process caches: netlists and orders are deterministic. An order
   depends on the node limit its candidates were built under. *)
let netlist_cache : (string, Logic.Netlist.t) Hashtbl.t = Hashtbl.create 32
let order_cache : (string * int, string list) Hashtbl.t = Hashtbl.create 32

let netlist_of (e : Circuits.Suite.entry) =
  match Hashtbl.find_opt netlist_cache e.name with
  | Some nl -> nl
  | None ->
    let nl = e.generate () in
    Hashtbl.replace netlist_cache e.name nl;
    nl

(* Circuits whose best static SBDD is larger keep that order, so the
   order step moves only the small and medium circuits' tables. *)
let sift_threshold = 5_000

let order_of config (e : Circuits.Suite.entry) =
  let node_limit = config.bdd_node_limit in
  match Hashtbl.find_opt order_cache (e.name, node_limit) with
  | Some o -> o
  | None ->
    let nl = netlist_of e in
    let order, size = Bdd.Sbdd.best_order ~node_limit nl in
    let order =
      if size > sift_threshold then order
      else Array.to_list (Bdd.Sbdd.improve ~order ~node_limit nl).input_order
    in
    Hashtbl.replace order_cache (e.name, node_limit) order;
    order

let sbdd_of config (e : Circuits.Suite.entry) =
  let nl = netlist_of e in
  match
    Bdd.Sbdd.of_netlist ~order:(order_of config e)
      ~node_limit:config.bdd_node_limit nl
  with
  | sbdd -> Some sbdd
  | exception Bdd.Manager.Size_limit _ -> None

let verify config (e : Circuits.Suite.entry) design =
  if config.verify_designs then begin
    let nl = netlist_of e in
    match
      Crossbar.Verify.auto ~trials:64 design ~inputs:nl.inputs
        ~reference:(Logic.Netlist.eval_point nl) ~outputs:nl.outputs
    with
    | Crossbar.Verify.Ok -> ()
    | Crossbar.Verify.Failed cex ->
      failwith
        (Format.asprintf "%s: verification failed: %a" e.name
           Crossbar.Verify.pp_counterexample cex)
  end

let synth ?(gamma = 0.5) ?solver ?max_cols config (e : Circuits.Suite.entry) =
  match sbdd_of config e with
  | None -> None
  | Some sbdd ->
    let bg = Compact.Preprocess.of_sbdd sbdd in
    if Graphs.Ugraph.num_nodes bg.graph > config.max_graph_nodes then None
    else begin
      let options =
        {
          Compact.Pipeline.default_options with
          gamma;
          time_limit = config.time_limit;
          bdd_node_limit = config.bdd_node_limit;
          max_cols;
          solver =
            (match solver with
             | Some s -> s
             | None -> Compact.Pipeline.default_options.solver);
        }
      in
      match Compact.Pipeline.synthesize_graph ~options ~name:e.name bg with
      | result ->
        verify config e result.design;
        Some result
      | exception Compact.Label_mip.Infeasible _ -> None
    end

(* ------------------------------------------------------------------ *)

let table1 config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       let nl = netlist_of e in
       let ni = Logic.Netlist.num_inputs nl in
       let no = Logic.Netlist.num_outputs nl in
       match sbdd_of config e with
       | None ->
         rows :=
           [ e.name; string_of_int ni; string_of_int no; "-"; "-";
             string_of_int e.paper_nodes; string_of_int e.paper_edges ]
           :: !rows
       | Some sbdd ->
         let nodes = Bdd.Sbdd.size sbdd - 1 (* paper convention: no 0-terminal *) in
         let edges = Bdd.Sbdd.num_edges sbdd in
         data := (e.name, ni, no, nodes, edges) :: !data;
         rows :=
           [ e.name; string_of_int ni; string_of_int no;
             string_of_int nodes; string_of_int edges;
             string_of_int e.paper_nodes; string_of_int e.paper_edges ]
           :: !rows)
    Circuits.Suite.all;
  Table.print ~title:"Table I: benchmark properties (ours vs paper)"
    ~columns:
      [ "circuit", Table.L; "in", Table.R; "out", Table.R; "nodes", Table.R;
        "edges", Table.R; "paper nodes", Table.R; "paper edges", Table.R ]
    (List.rev !rows);
  List.rev !data

let gammas = [ 0.0; 0.5; 1.0 ]

let table2 config =
  let data = ref [] in
  let rows = ref [] in
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       List.iter
         (fun gamma ->
            match synth ~gamma config e with
            | None -> ()
            | Some r ->
              data := (e.name, gamma, r.report) :: !data;
              rows :=
                [ e.name; Printf.sprintf "%.1f" gamma;
                  string_of_int r.report.rows; string_of_int r.report.cols;
                  string_of_int r.report.max_dimension;
                  string_of_int r.report.semiperimeter;
                  Table.fmt_f r.report.synthesis_time;
                  (if r.report.optimal then "yes" else Table.fmt_pct r.report.gap) ]
                :: !rows)
         gammas)
    Circuits.Suite.small;
  Table.print ~title:"Table II: influence of gamma (rows/cols/D/S/time)"
    ~columns:
      [ "circuit", Table.L; "gamma", Table.R; "rows", Table.R; "cols", Table.R;
        "D", Table.R; "S", Table.R; "time", Table.R; "optimal", Table.R ]
    (List.rev !rows);
  List.rev !data

let pareto points =
  (* Non-dominated (rows, cols) pairs. *)
  let dominated (r1, c1) =
    List.exists
      (fun (r2, c2) -> (r2 <= r1 && c2 < c1) || (r2 < r1 && c2 <= c1))
      points
  in
  List.sort_uniq compare (List.filter (fun p -> not (dominated p)) points)

let fig9 config =
  let sweep = List.init 11 (fun i -> float_of_int i /. 10.) in
  let run name =
    let e = Circuits.Suite.find name in
    let gamma_points =
      List.filter_map
        (fun gamma ->
           match synth ~gamma config e with
           | None -> None
           | Some r -> Some (r.report.rows, r.report.cols))
        sweep
    in
    (* Walk the frontier explicitly: cap the bitline count below the
       balanced optimum and re-minimise the semiperimeter (the Section III
       constrained formulation); each feasible cap yields one candidate
       trade-off point. *)
    let capacity_points =
      match gamma_points with
      | [] -> []
      | (_, c0) :: _ ->
        List.filter_map
          (fun delta ->
             let cap = c0 - delta in
             if cap <= 0 then None
             else
               match synth ~gamma:1.0 ~max_cols:cap config e with
               | None -> None
               | Some r -> Some (r.report.rows, r.report.cols))
          [ 1; 2; 3; 4 ]
    in
    name, pareto (gamma_points @ capacity_points)
  in
  let results = List.map run [ "cavlc"; "int2float" ] in
  List.iter
    (fun (name, pts) ->
       Printf.printf "\n== Fig 9: non-dominated designs for %s ==\n" name;
       List.iter (fun (r, c) -> Printf.printf "  (%d, %d)\n" r c) pts)
    results;
  results

let report_of_staircase (e : Circuits.Suite.entry) (s : Baseline.Staircase.result) =
  let d = s.merged in
  Compact.Report.check
  {
    Compact.Report.circuit = e.name;
    bdd_nodes = s.total_bdd_nodes;
    bdd_edges = s.total_bdd_edges;
    rows = Crossbar.Design.rows d;
    cols = Crossbar.Design.cols d;
    semiperimeter = Crossbar.Design.semiperimeter d;
    max_dimension = Crossbar.Design.max_dimension d;
    area = Crossbar.Design.area d;
    vh_count = s.total_bdd_nodes;
    power_literals = Crossbar.Design.num_literal_junctions d;
    delay_steps = Crossbar.Design.delay_steps d;
    synthesis_time = s.synthesis_time;
    label_time = 0.;
    optimal = true;
    gap = 0.;
    method_name = "staircase[16]";
    gamma = nan;
    solver_path = [ "staircase[16]" ];
    solver_retries = 0;
    deadline_hit = false;
    bdd_stats = None;
    analog = None;
  }

let staircase_of config (e : Circuits.Suite.entry) =
  let nl = netlist_of e in
  match
    Baseline.Staircase.synthesize ~order:(order_of config e)
      ~node_limit:config.bdd_node_limit nl
  with
  | s -> Some (report_of_staircase e s)
  | exception Bdd.Manager.Size_limit _ -> None

let robdds_of config (e : Circuits.Suite.entry) =
  let nl = netlist_of e in
  let options =
    {
      Compact.Pipeline.default_options with
      gamma = 0.5;
      time_limit = config.time_limit /. float_of_int (max 1 (Logic.Netlist.num_outputs nl));
      bdd_node_limit = config.bdd_node_limit;
      order = Some (order_of config e);
    }
  in
  let start = Obs.Clock.now () in
  match Compact.Pipeline.synthesize_separate_robdds ~options nl with
  | results, merged ->
    let total_nodes =
      List.fold_left
        (fun acc (r : Compact.Pipeline.result) -> acc + r.report.bdd_nodes)
        0 results
    in
    let total_edges =
      List.fold_left
        (fun acc (r : Compact.Pipeline.result) -> acc + r.report.bdd_edges)
        0 results
    in
    Some
      (Compact.Report.check
      {
        Compact.Report.circuit = e.name;
        bdd_nodes = total_nodes;
        bdd_edges = total_edges;
        rows = Crossbar.Design.rows merged;
        cols = Crossbar.Design.cols merged;
        semiperimeter = Crossbar.Design.semiperimeter merged;
        max_dimension = Crossbar.Design.max_dimension merged;
        area = Crossbar.Design.area merged;
        vh_count =
          List.fold_left
            (fun acc (r : Compact.Pipeline.result) -> acc + r.report.vh_count)
            0 results;
        power_literals = Crossbar.Design.num_literal_junctions merged;
        delay_steps = Crossbar.Design.delay_steps merged;
        synthesis_time = Obs.Clock.now () -. start;
        label_time = 0.;
        optimal = false;
        gap = 0.;
        method_name = "robdds";
        gamma = 0.5;
        solver_path = [ "robdds" ];
        solver_retries = 0;
        deadline_hit = false;
        bdd_stats = None;
        analog = None;
      })
  | exception Bdd.Manager.Size_limit _ -> None

let multi_output_entries =
  List.filter
    (fun (e : Circuits.Suite.entry) -> e.paper_outputs > 1)
    Circuits.Suite.small

let table3 config =
  let data = ref [] in
  let rows = ref [] in
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       let robdds = robdds_of config e in
       let sbdd = synth ~gamma:0.5 config e in
       let sbdd_report = Option.map (fun (r : Compact.Pipeline.result) -> r.report) sbdd in
       data := (e.name, robdds, sbdd_report) :: !data;
       let cell f = function Some (r : Compact.Report.t) -> f r | None -> "-" in
       rows :=
         [ e.name;
           cell (fun r -> string_of_int r.bdd_nodes) robdds;
           cell (fun r -> string_of_int r.rows) robdds;
           cell (fun r -> string_of_int r.cols) robdds;
           cell (fun r -> string_of_int r.semiperimeter) robdds;
           cell (fun r -> string_of_int r.bdd_nodes) sbdd_report;
           cell (fun r -> string_of_int r.rows) sbdd_report;
           cell (fun r -> string_of_int r.cols) sbdd_report;
           cell (fun r -> string_of_int r.semiperimeter) sbdd_report ]
         :: !rows)
    multi_output_entries;
  Table.print
    ~title:"Table III: multiple ROBDDs vs single SBDD (gamma = 0.5)"
    ~columns:
      [ "circuit", Table.L; "R-nodes", Table.R; "R-rows", Table.R;
        "R-cols", Table.R; "R-S", Table.R; "S-nodes", Table.R;
        "S-rows", Table.R; "S-cols", Table.R; "S-S", Table.R ]
    (List.rev !rows);
  List.rev !data

let table4 config =
  let data = ref [] in
  let rows = ref [] in
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       let stair = staircase_of config e in
       let compact = synth ~gamma:0.5 config e in
       let compact_report =
         Option.map (fun (r : Compact.Pipeline.result) -> r.report) compact
       in
       data := (e.name, stair, compact_report) :: !data;
       let cell f = function Some (r : Compact.Report.t) -> f r | None -> "-" in
       rows :=
         [ e.name;
           cell (fun r -> string_of_int r.bdd_nodes) stair;
           cell (fun r -> string_of_int r.semiperimeter) stair;
           cell (fun r -> string_of_int r.area) stair;
           cell (fun r -> Table.fmt_f r.synthesis_time) stair;
           cell (fun r -> string_of_int r.bdd_nodes) compact_report;
           cell (fun r -> string_of_int r.semiperimeter) compact_report;
           cell (fun r -> string_of_int r.area) compact_report;
           cell (fun r -> Table.fmt_f r.synthesis_time) compact_report ]
         :: !rows)
    Circuits.Suite.all;
  Table.print
    ~title:"Table IV: staircase [16] vs COMPACT (gamma = 0.5)"
    ~columns:
      [ "circuit", Table.L; "[16] nodes", Table.R; "[16] S", Table.R;
        "[16] area", Table.R; "[16] time", Table.R; "C nodes", Table.R;
        "C S", Table.R; "C area", Table.R; "C time", Table.R ]
    (List.rev !rows);
  List.rev !data

let all_vh ~gamma (bg : Compact.Types.bdd_graph) =
  Compact.Types.make_labeling bg ~gamma ~optimal:false ~lower_bound:0.
    ~solve_time:0. ~method_name:"trivial"
    (Array.make (Graphs.Ugraph.num_nodes bg.graph) Compact.Types.VH)

let fig10 config =
  (* The paper shows the CPLEX convergence on i2c; our tableau-simplex
     MIP is exact only on smaller graphs, so the trace is recorded on the
     largest benchmark it can branch on (int2float). Like Section VI-C
     describes for CPLEX, the solver starts from the trivial feasible
     solution where every node is labelled VH, so the incumbent visibly
     converges from 2n downwards. *)
  let e = Circuits.Suite.find "int2float" in
  match sbdd_of config e with
  | None -> []
  | Some sbdd ->
    let bg = Compact.Preprocess.of_sbdd sbdd in
    let gamma = 0.5 in
    let labeling =
      Compact.Label_mip.solve
        ~budget:(Resilience.Budget.seconds (4. *. config.time_limit))
        ~alignment:true ~gamma ~warm_start:(all_vh ~gamma bg) bg
    in
    Printf.printf
      "\n== Fig 10: MIP convergence on %s (best integer / bound / gap) ==\n"
      e.name;
    List.iter
      (fun (t : Milp.Branch_bound.trace_point) ->
         Printf.printf "  t=%7.3fs  incumbent=%s  bound=%7.1f  gap=%s\n"
           t.t_elapsed
           (match t.t_incumbent with
            | Some v -> Printf.sprintf "%7.1f" v
            | None -> "   none")
           t.t_bound (Table.fmt_pct t.t_gap))
      labeling.trace;
    labeling.trace

let fig11 config =
  let candidates = [ "cavlc"; "dec"; "priority"; "i2c"; "router"; "c432" ] in
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun name ->
       match Circuits.Suite.find name with
       | exception Not_found -> ()
       | e -> (
           match synth ~gamma:0.5 config e with
           | Some r when not r.report.optimal ->
             data := (name, r.report.gap) :: !data;
             rows := [ name; Table.fmt_pct r.report.gap ] :: !rows
           | Some _ | None -> ()))
    candidates;
  Table.print
    ~title:"Fig 11: relative gap at the time limit (unconverged benchmarks)"
    ~columns:[ "circuit", Table.L; "gap", Table.R ]
    (List.rev !rows);
  List.rev !data

let fig12 config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       match staircase_of config e, synth ~gamma:0.5 config e with
       | Some stair, Some compact ->
         let r = compact.report in
         let power_ratio =
           float_of_int r.power_literals /. float_of_int (max 1 stair.power_literals)
         in
         let delay_ratio =
           float_of_int r.delay_steps /. float_of_int (max 1 stair.delay_steps)
         in
         data := (e.name, power_ratio, delay_ratio) :: !data;
         rows :=
           [ e.name; string_of_int stair.power_literals;
             string_of_int r.power_literals; Table.fmt_pct power_ratio;
             string_of_int stair.delay_steps; string_of_int r.delay_steps;
             Table.fmt_pct delay_ratio ]
           :: !rows
       | _ -> ())
    Circuits.Suite.all;
  Table.print
    ~title:
      "Fig 12: normalized power & delay, COMPACT vs staircase [16] (<100% = COMPACT wins)"
    ~columns:
      [ "circuit", Table.L; "[16] power", Table.R; "C power", Table.R;
        "power ratio", Table.R; "[16] delay", Table.R; "C delay", Table.R;
        "delay ratio", Table.R ]
    (List.rev !rows);
  List.rev !data

let fig13 config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       if e.category = Circuits.Suite.Epfl_control then begin
         let nl = netlist_of e in
         let contra = Baseline.Contra.estimate nl in
         match synth ~gamma:0.5 config e with
         | None -> ()
         | Some compact ->
           let r = compact.report in
           let power_ratio =
             float_of_int r.power_literals
             /. float_of_int (max 1 contra.power_ops)
           in
           let delay_ratio =
             float_of_int r.delay_steps
             /. float_of_int (max 1 contra.delay_steps)
           in
           data := (e.name, power_ratio, delay_ratio) :: !data;
           rows :=
             [ e.name; string_of_int contra.power_ops;
               string_of_int r.power_literals; Table.fmt_pct power_ratio;
               string_of_int contra.delay_steps; string_of_int r.delay_steps;
               Table.fmt_pct delay_ratio ]
             :: !rows
       end)
    Circuits.Suite.all;
  Table.print
    ~title:
      "Fig 13: power & delay, COMPACT vs CONTRA/MAGIC on EPFL control (<100% = COMPACT wins)"
    ~columns:
      [ "circuit", Table.L; "CONTRA ops", Table.R; "C power", Table.R;
        "power ratio", Table.R; "CONTRA delay", Table.R; "C delay", Table.R;
        "delay ratio", Table.R ]
    (List.rev !rows);
  List.rev !data

(* ------------------------------------------------------------------ *)

let robustness_rates = [ 0.002; 0.005; 0.01; 0.02 ]

let robustness ?(circuits = [ "ctrl"; "cavlc" ]) ?(trials = 15) config =
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun name ->
       let e = Circuits.Suite.find name in
       match synth ~gamma:0.5 config e with
       | None -> ()
       | Some base ->
         let nl = netlist_of e in
         let reference = Logic.Netlist.eval_point nl in
         let arr_rows = Crossbar.Design.rows base.design + 1 in
         let arr_cols = Crossbar.Design.cols base.design + 1 in
         List.iter
           (fun rate ->
              let repaired = ref 0 and degraded = ref 0 and lost = ref 0 in
              (* Each draw is a pure function of (name, rate, k); the
                 tallies are order-independent counts, so draws fan out
                 on the pool. *)
              let run_draw k =
                let map =
                  Crossbar.Defect_map.random
                    ~seed:(Hashtbl.hash (name, rate, k))
                    ~spare_rows:1 ~spare_cols:1 ~rate ~rows:arr_rows
                    ~cols:arr_cols ()
                in
                (* Placement ladder only: a resynthesis per draw would
                   dominate the sweep's runtime. *)
                let rep =
                  Compact.Repair.run
                    ~seed:(Hashtbl.hash (name, rate, k, `V))
                    ~defects:map ~inputs:nl.inputs ~outputs:nl.outputs
                    ~reference base.design
                in
                rep.Compact.Repair.outcome
              in
              Parallel.with_pool ~jobs:config.jobs (fun pool ->
                  Parallel.map ~chunk:4 pool run_draw
                    (List.init trials (fun i -> i + 1)))
              |> List.iter (function
                | Compact.Repair.Repaired _ -> incr repaired
                | Compact.Repair.Degraded _ -> incr degraded
                | Compact.Repair.Unplaceable _ -> incr lost);
              data := (name, rate, !repaired, !degraded, !lost) :: !data;
              rows :=
                [ name; Printf.sprintf "%dx%d" arr_rows arr_cols;
                  Printf.sprintf "%.1f%%" (100. *. rate);
                  string_of_int !repaired; string_of_int !degraded;
                  string_of_int !lost;
                  Table.fmt_pct (float_of_int !repaired /. float_of_int trials)
                ]
                :: !rows)
           robustness_rates)
    circuits;
  Table.print
    ~title:
      (Printf.sprintf
         "Robustness: repair yield over %d random arrays per point (+1/+1 \
          spares)"
         trials)
    ~columns:
      [ "circuit", Table.L; "array", Table.R; "fault rate", Table.R;
        "repaired", Table.R; "degraded", Table.R; "unplaceable", Table.R;
        "yield", Table.R ]
    (List.rev !rows);
  List.rev !data

(* ------------------------------------------------------------------ *)

let variation_sigmas = [ 0.05; 0.1; 0.2; 0.3; 0.4 ]

let variation ?(circuits = [ "ctrl"; "cavlc" ]) ?(sigmas = variation_sigmas)
    ?(max_trials = 60) config =
  (* Electrical robustness sweep (beyond the paper): Monte-Carlo
     functional yield and worst-case corner margin as the lognormal
     device spread grows. sigma is the r_on ln-space deviation; r_off
     spreads twice as wide, matching the default spec's shape. *)
  let rows = ref [] in
  let data = ref [] in
  List.iter
    (fun name ->
       let e = Circuits.Suite.find name in
       match synth ~gamma:0.5 config e with
       | None -> ()
       | Some base ->
         let nl = netlist_of e in
         let reference = Logic.Netlist.eval_point nl in
         List.iter
           (fun sigma ->
              let spec =
                {
                  Crossbar.Variation.default_spec with
                  sigma_on = sigma;
                  sigma_off = 2. *. sigma;
                }
              in
              let corner_worst =
                Crossbar.Margin.worst_over_corners
                  (Crossbar.Margin.corners ~spec base.design ~inputs:nl.inputs
                     ~reference ~outputs:nl.outputs)
              in
              let mc =
                Crossbar.Margin.monte_carlo
                  ~seed:(Hashtbl.hash (name, sigma))
                  ~max_trials ~jobs:config.jobs ~spec base.design
                  ~inputs:nl.inputs ~reference ~outputs:nl.outputs
              in
              data := (name, sigma, corner_worst, mc) :: !data;
              rows :=
                [ name; Printf.sprintf "%.2f" sigma;
                  Printf.sprintf "%+.4f" corner_worst;
                  Printf.sprintf "%d/%d" mc.Crossbar.Margin.mc_passes
                    mc.Crossbar.Margin.mc_trials;
                  Table.fmt_pct mc.Crossbar.Margin.mc_yield;
                  Printf.sprintf "[%.0f%%, %.0f%%]"
                    (100. *. mc.Crossbar.Margin.mc_low)
                    (100. *. mc.Crossbar.Margin.mc_high);
                  Printf.sprintf "%.4f" mc.Crossbar.Margin.mc_mean_worst ]
                :: !rows)
           sigmas)
    circuits;
  Table.print
    ~title:
      "Variation: MC functional yield and worst corner margin vs device \
       spread"
    ~columns:
      [ "circuit", Table.L; "sigma", Table.R; "corner margin", Table.R;
        "pass", Table.R; "yield", Table.R; "wilson 95%", Table.R;
        "mean worst", Table.R ]
    (List.rev !rows);
  List.rev !data

let run_all config =
  ignore (table1 config);
  ignore (table2 config);
  ignore (fig9 config);
  ignore (table3 config);
  ignore (table4 config);
  ignore (fig10 config);
  ignore (fig11 config);
  ignore (fig12 config);
  ignore (fig13 config);
  ignore (robustness config);
  ignore (variation config)
