type solver = Oct_exact | Oct_greedy | Mip | Heuristic | Auto | Portfolio

type options = {
  gamma : float;
  solver : solver;
  alignment : bool;
  time_limit : float;
  deadline : float option;
  bdd_node_limit : int;
  order : string list option;
  max_rows : int option;
  max_cols : int option;
  jobs : int;
  race_orders : int;
}

let mip_node_threshold = 160

let default_options =
  {
    gamma = 0.5;
    solver = Auto;
    alignment = true;
    time_limit = 60.;
    deadline = None;
    bdd_node_limit = 2_000_000;
    order = None;
    max_rows = None;
    max_cols = None;
    jobs = 1;
    race_orders = 1;
  }

(* The run's global budget: an explicit one from the caller wins,
   otherwise [deadline] opens a fresh cancellable budget, otherwise the
   unlimited no-op budget — the pre-resilience behaviour. *)
let budget_of_options ?budget options =
  match budget with
  | Some b -> b
  | None ->
    (match options.deadline with
     | Some s -> Resilience.Budget.seconds s
     | None -> Resilience.Budget.unlimited)

type result = {
  design : Crossbar.Design.t;
  labeling : Types.labeling;
  bdd_graph : Types.bdd_graph;
  report : Report.t;
}

let solver_name = function
  | Oct_exact -> "oct"
  | Oct_greedy -> "oct-greedy"
  | Mip -> "mip"
  | Heuristic -> "heuristic"
  | Auto -> "auto"
  | Portfolio -> "portfolio"

let solver_of_name = function
  | "oct" -> Some Oct_exact
  | "oct-greedy" -> Some Oct_greedy
  | "mip" -> Some Mip
  | "heuristic" -> Some Heuristic
  | "auto" -> Some Auto
  | "portfolio" -> Some Portfolio
  | _ -> None

let run_one ~budget options bg solver =
  let { gamma; alignment; max_rows; max_cols; _ } = options in
  match solver with
  | Oct_exact -> Label_oct.solve ~budget ~alignment ~gamma bg
  | Oct_greedy -> Label_oct.greedy ~alignment ~gamma bg
  | Heuristic -> Label_heuristic.solve ~budget ~alignment ~gamma bg
  | Mip ->
    (* Warm start and OCT cut from the combinatorial pipeline: a quarter
       of the rung's remaining budget, the rest to the branch & bound. *)
    let warm =
      Label_heuristic.solve
        ~budget:(Resilience.Budget.slice budget ~frac:0.25)
        ~alignment ~gamma bg
    in
    let oct_cut =
      (* S ≥ n + k* holds at every γ (Lemma 1), and the warm start's
         [lower_bound] already carries it to the branch & bound as a
         stopping bound. The cut rows stay γ = 1 only: at other γ they
         change the relaxations, and one serve-mix design moves to
         another labeling of equal objective. *)
      if warm.Types.optimal && gamma >= 1. -. 1e-9 then warm.Types.vh_count
      else 0
    in
    Label_mip.solve ~budget ~alignment ~gamma
      ~warm_start:warm ~oct_cut ?max_rows ?max_cols bg
  | Auto | Portfolio -> assert false

(* The Auto/Portfolio rung ladder for a given graph: MIP while the
   branch & bound is tractable, the combinatorial heuristic above that,
   and the linear-time greedy transversal as the terminal rung that
   always completes. *)
let auto_ladder bg =
  let primary =
    if Graphs.Ugraph.num_nodes bg.Types.graph <= mip_node_threshold then Mip
    else Heuristic
  in
  primary :: List.filter (fun s -> s <> primary) [ Heuristic; Oct_greedy ]

(* Every rung attempt gets its own span, so the ladder is auditable in
   the trace, including rungs that raise. *)
let run_rung ~budget options bg s =
  Obs.Span.with_ ("rung:" ^ solver_name s) (fun () ->
      let l = run_one ~budget options bg s in
      Obs.Span.add_attr "optimal" (string_of_bool l.Types.optimal);
      Obs.Span.add_attr "method" l.Types.method_name;
      l)

(* ------------------------------------------------------------------ *)
(* The labeling ladder behind [Auto] and [Portfolio]: the rungs of
   [auto_ladder] — times the candidate orders under the portfolio — run
   as entrants of one {!Parallel.race}. The race's staged rule picks the
   labeling (rung priority, then semiperimeter, then order index), never
   wall-clock, so the result is byte-identical at any [-j].

   Auto is the one-order case on a 1-job pool: the race then evaluates
   rung by rung and stops at the first accepted one — the sequential
   watchdog. Portfolio races on an [options.jobs] pool; every entrant
   is sequential.

   One budget rule for both: a non-terminal rung gets half the race's
   remaining wall budget, never more than [time_limit]; the terminal
   rung keeps the race's cancel but no wall deadline, so it always
   completes. A rung is accepted when it proved optimality or finished
   inside its own wall deadline; a rung that spent its budget has only
   a best-so-far incumbent and the next cheaper rung is preferred.
   Acceptance reads the deadline alone ([Budget.remaining] ignores the
   cancel latch), so a winner's cancel landing just as a loser finishes
   cannot flip that loser's verdict. *)

let c_races = Obs.Counter.make "portfolio.races"
let c_entrants = Obs.Counter.make "portfolio.entrants"
let c_entrants_cut = Obs.Counter.make "portfolio.entrants_cut"
let c_entrants_failed = Obs.Counter.make "portfolio.entrants_failed"

type entrant_result = { er_labeling : Types.labeling; er_accepted : bool }

let run_ladder ~budget options (graphs : Types.bdd_graph array) =
  let racing = options.solver = Portfolio in
  (* One ladder for the whole race, derived from the order-0 graph, so
     the group structure does not depend on which candidate orders
     happened to be available. *)
  let ladder = auto_ladder graphs.(0) in
  let terminal = List.length ladder - 1 in
  let norders = if racing then Array.length graphs else 1 in
  let entrants =
    Array.of_list
      (List.concat
         (List.mapi
            (fun rung s -> List.init norders (fun oi -> rung, s, oi))
            ladder))
  in
  let pool_jobs = if racing then options.jobs else 1 in
  let thunk (rung, s, oi) rb =
    let eb =
      if rung = terminal then Resilience.Budget.untimed rb
      else
        Resilience.Budget.limited
          (Resilience.Budget.slice rb ~frac:0.5)
          options.time_limit
    in
    let l = run_rung ~budget:eb options graphs.(oi) s in
    {
      er_labeling = l;
      er_accepted = l.Types.optimal || Resilience.Budget.remaining eb > 0.;
    }
  in
  let semiperimeter er = Types.semiperimeter er.er_labeling in
  let winner, outcomes =
    Parallel.with_pool ~jobs:pool_jobs (fun pool ->
        Parallel.race ~budget
          ~groups:(Array.map (fun (rung, _, _) -> rung) entrants)
          ~prefer:(fun a b -> compare (semiperimeter a) (semiperimeter b))
          pool (Array.map thunk entrants)
          ~acceptable:(fun er -> er.er_accepted))
  in
  if racing then begin
    Obs.Counter.incr c_races;
    Obs.Counter.add c_entrants (Array.length entrants);
    Array.iter
      (function
        | Parallel.Cut -> Obs.Counter.incr c_entrants_cut
        | Parallel.Failed _ -> Obs.Counter.incr c_entrants_failed
        | Parallel.Finished _ -> ())
      outcomes
  end;
  (* Auto lists the rungs that ran ("mip->heuristic"); the portfolio
     lists every entrant with its outcome ("mip@0:win"), so a race is
     as auditable as the watchdog. *)
  let entry (_, s, oi) tag =
    if racing then Some (Printf.sprintf "%s@%d:%s" (solver_name s) oi tag)
    else if tag = "cut" then None
    else Some (solver_name s)
  in
  let path =
    List.filter_map
      (fun i ->
         entry entrants.(i)
           (match outcomes.(i) with
            | Parallel.Cut -> "cut"
            | Parallel.Failed _ -> "error"
            | Parallel.Finished er ->
              if Some i = winner then "win"
              else if er.er_accepted then "ok"
              else "partial"))
      (List.init (Array.length entrants) Fun.id)
  in
  match winner with
  | Some w ->
    let _, _, oi = entrants.(w) in
    (match outcomes.(w) with
     | Parallel.Finished er -> er.er_labeling, oi, path
     | Parallel.Cut | Parallel.Failed _ -> assert false)
  | None ->
    (* Rescue: every entrant spent its budget, failed or was cut (e.g.
       the caller's deadline expired before or during the ladder). Run
       the terminal rung directly and unbudgeted, so the ladder always
       ends with a labeling. *)
    Obs.Span.event "ladder-rescue"
      ~attrs:[ "entrants", string_of_int (Array.length entrants) ];
    let l =
      run_rung ~budget:Resilience.Budget.unlimited options graphs.(0)
        Oct_greedy
    in
    l, 0, path @ Option.to_list (entry (terminal, Oct_greedy, 0) "win")

(* Returns the labeling, the index of the graph it labels (always 0
   outside the portfolio), and the path of solver rungs attempted.
   [Auto] and [Portfolio] run the ladder above. Explicitly chosen
   solvers run exactly once — the user asked for that method and a
   substitution would be silent — and capacity-constrained runs always
   use the MIP, the only formulation that can express them. *)
let run_labeler ~budget options (graphs : Types.bdd_graph array) =
  let { time_limit; max_rows; max_cols; _ } = options in
  let single s =
    (* A deterministic share of the run's remaining wall budget, never
       more than [time_limit]: with no global deadline this is exactly
       the per-solver time limit. *)
    let b =
      Resilience.Budget.limited
        (Resilience.Budget.slice budget ~frac:1.0)
        time_limit
    in
    run_rung ~budget:b options graphs.(0) s, 0, [ solver_name s ]
  in
  if max_rows <> None || max_cols <> None then single Mip
  else
    match options.solver with
    | (Oct_exact | Oct_greedy | Mip | Heuristic) as s -> single s
    | Auto | Portfolio -> run_ladder ~budget options graphs

(* The shared back half of every entry point: label (racing across
   [graphs] under the portfolio, on [graphs.(0)] otherwise), map the
   winning graph, report. Returns the winning graph index so SBDD-level
   wrappers can attribute engine stats to the diagram that won. *)
(* Stage-duration histograms mirroring the stage spans, so a serving
   process exposes per-stage latency distributions without tracing. *)
let h_labeling = Obs.Hist.make_ms "pipeline.labeling-ms"
let h_mapping = Obs.Hist.make_ms "pipeline.mapping-ms"
let h_preprocess = Obs.Hist.make_ms "pipeline.preprocess-ms"
let h_bdd_build = Obs.Hist.make_ms "pipeline.bdd-build-ms"

let synthesize_graphs ~options ~budget ~name graphs =
  Resilience.Budget.protect_oom @@ fun () ->
  let start = Obs.Clock.now () in
  let labeling, widx, solver_path =
    Obs.Hist.time h_labeling @@ fun () ->
    Obs.Span.with_ "labeling" (fun () ->
        let labeling, widx, solver_path = run_labeler ~budget options graphs in
        Obs.Span.add_attr "solver_path" (String.concat "->" solver_path);
        labeling, widx, solver_path)
  in
  let bg = graphs.(widx) in
  let design =
    Obs.Hist.time h_mapping @@ fun () ->
    Obs.Span.with_ "mapping" (fun () -> Mapping.run bg labeling)
  in
  let synthesis_time = Obs.Clock.now () -. start in
  let deadline_hit = Resilience.Budget.exhausted budget in
  let report =
    Report.of_design ~solver_path ~deadline_hit ~circuit:name ~bdd_graph:bg
      ~labeling ~synthesis_time design
  in
  { design; labeling; bdd_graph = bg; report }, widx

let synthesize_graph ?(options = default_options) ?budget ~name bg =
  let budget = budget_of_options ?budget options in
  fst (synthesize_graphs ~options ~budget ~name [| bg |])

let synthesize_sbdds ~options ~budget ~name sbdds =
  let start = Obs.Clock.now () in
  let graphs =
    Obs.Hist.time h_preprocess @@ fun () ->
    Obs.Span.with_ "preprocess" (fun () ->
        Array.map Preprocess.of_sbdd sbdds)
  in
  let inner, widx = synthesize_graphs ~options ~budget ~name graphs in
  let synthesis_time = Obs.Clock.now () -. start in
  let report =
    {
      inner.report with
      Report.synthesis_time;
      bdd_stats = Some (Bdd.Sbdd.stats sbdds.(widx));
    }
  in
  { inner with report }

let synthesize_sbdd ?(options = default_options) ?budget ~name sbdd =
  let budget = budget_of_options ?budget options in
  synthesize_sbdds ~options ~budget ~name [| sbdd |]

(* Snapshot the BDD engine's raw stats counters into the metric
   registry at a span boundary — the engine's own hot loops stay on
   plain ints. *)
let g_peak_nodes = Obs.Gauge.make "bdd.peak_nodes"
let c_unique_lookups = Obs.Counter.make "bdd.unique_lookups"
let c_unique_hits = Obs.Counter.make "bdd.unique_hits"
let c_cache_lookups = Obs.Counter.make "bdd.cache_lookups"
let c_cache_hits = Obs.Counter.make "bdd.cache_hits"
let c_growths = Obs.Counter.make "bdd.growths"
let c_level_swaps = Obs.Counter.make "bdd.level_swaps"
let c_sift_passes = Obs.Counter.make "bdd.sift_passes"
let c_cache_invalidations = Obs.Counter.make "bdd.cache_invalidations"

let record_bdd_stats (s : Bdd.Manager.stats) =
  if Obs.recording () then begin
    Obs.Counter.add c_unique_lookups s.unique_lookups;
    Obs.Counter.add c_unique_hits s.unique_hits;
    Obs.Counter.add c_cache_lookups s.cache_lookups;
    Obs.Counter.add c_cache_hits s.cache_hits;
    Obs.Counter.add c_growths s.growths;
    Obs.Counter.add c_level_swaps s.level_swaps;
    Obs.Counter.add c_sift_passes s.sift_passes;
    Obs.Counter.add c_cache_invalidations s.cache_invalidations;
    Obs.Gauge.set g_peak_nodes (float_of_int s.peak_nodes)
  end

let synthesize ?(options = default_options) ?budget ?(sift = false) netlist =
  let budget = budget_of_options ?budget options in
  Resilience.Budget.protect_oom @@ fun () ->
  Obs.Span.with_ ~attrs:[ "circuit", netlist.Logic.Netlist.name ] "synthesize"
  @@ fun () ->
  let start = Obs.Clock.now () in
  (* The build keeps the budget's cancellation/node/memory state but not
     the wall deadline: a partial diagram is useless, the build is
     already bounded by [bdd_node_limit], and an expired deadline should
     degrade the labeling rungs — which can return incumbents — rather
     than abort with no output. *)
  let build_budget = Resilience.Budget.untimed budget in
  let build ?(sift = false) ?order () =
    let node_limit = options.bdd_node_limit in
    let sbdd =
      (* The order step's candidate search and sift stop at the
         deadline and keep the smallest diagram built so far; with no
         complete candidate it builds the default order untimed. *)
      if sift then Bdd.Sbdd.improve ~budget ?order ~node_limit netlist
      else Bdd.Sbdd.of_netlist ~budget:build_budget ?order ~node_limit netlist
    in
    record_bdd_stats (Bdd.Sbdd.stats sbdd);
    sbdd
  in
  let sbdds =
    Obs.Hist.time h_bdd_build @@ fun () ->
    Obs.Span.with_ "bdd-build" (fun () ->
        let first = build ~sift ?order:options.order () in
        (* Portfolio order racing: build up to [race_orders - 1] further
           diagrams under the remaining static candidate orders (skipping
           any that duplicates the first build's order) so the race can
           pit (solver, order) entrants against each other. Extra builds
           are bounded by the same node limit; one that blows it is
           simply not an entrant. *)
        let extra =
          if options.solver <> Portfolio || options.race_orders <= 1 then []
          else begin
            let first_order =
              Array.to_list first.Bdd.Sbdd.input_order
            in
            let picked = ref [] in
            let n = ref 0 in
            List.iter
              (fun order ->
                 if !n < options.race_orders - 1 && order <> first_order then begin
                   match build ~order () with
                   | sbdd ->
                     incr n;
                     picked := sbdd :: !picked
                   | exception Bdd.Manager.Size_limit _ -> ()
                 end)
              (Bdd.Order.candidates netlist);
            List.rev !picked
          end
        in
        Array.of_list (first :: extra))
  in
  let inner =
    synthesize_sbdds ~options ~budget ~name:netlist.Logic.Netlist.name sbdds
  in
  let synthesis_time = Obs.Clock.now () -. start in
  let report = { inner.report with Report.synthesis_time } in
  { inner with report }

let synthesize_expr ?(options = default_options) ~name e =
  let inputs = Logic.Expr.vars e in
  let netlist =
    Logic.Netlist.create ~name ~inputs ~outputs:[ name ^ "_out" ]
      [ Logic.Netlist.n_expr (name ^ "_out") e ]
  in
  synthesize ~options netlist

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
  (* Per block: its input row and its first row, column and variable in
     the merged design and the concatenated tables. *)
  let row_offset = ref 0 and col_offset = ref 0 and var_offset = ref 0 in
  let blocks =
    List.map
      (fun d ->
         let b = d, input_row d, !row_offset, !col_offset, !var_offset in
         row_offset := !row_offset + Crossbar.Design.rows d - 1;
         col_offset := !col_offset + Crossbar.Design.cols d;
         var_offset := !var_offset + Array.length (Crossbar.Design.vars d);
         b)
      designs
  in
  (* Global row of a block-local row: input row → shared row; rows after
     the input shift up by one. *)
  let global_row inp row_offset i =
    if i = inp then shared_input
    else if i < inp then row_offset + i
    else row_offset + i - 1
  in
  let outputs =
    List.concat_map
      (fun (d, inp, r, c, _) ->
         List.map
           (fun (o, w) ->
              ( o,
                match w with
                | Crossbar.Design.Row i -> Crossbar.Design.Row (global_row inp r i)
                | Crossbar.Design.Col j -> Crossbar.Design.Col (c + j) ))
           (Crossbar.Design.outputs d))
      blocks
  in
  (* Each block's codes move past the variables of the blocks before it;
     the builder merges repeated names. *)
  Crossbar.Design.build_coded ~rows:total_rows ~cols:total_cols
    ~input:(Crossbar.Design.Row shared_input) ~outputs
    ~vars:(Array.concat (List.map Crossbar.Design.vars designs))
    (fun set ->
       List.iter
         (fun (d, inp, r, c, v) ->
            Crossbar.Design.iter_coded d (fun i j code ->
                set ~row:(global_row inp r i) ~col:(c + j)
                  (Crossbar.Literal.recode code
                     (Crossbar.Literal.code_variable code + v))))
         blocks)

let synthesize_separate_robdds ?(options = default_options) ?budget netlist =
  let budget = budget_of_options ?budget options in
  let options = { options with alignment = true } in
  let sbdds =
    Bdd.Sbdd.of_netlist_separate ?order:options.order
      ~node_limit:options.bdd_node_limit netlist
  in
  let results =
    List.map
      (fun (sbdd : Bdd.Sbdd.t) ->
         let name =
           match sbdd.roots with
           | [ (o, _) ] -> netlist.Logic.Netlist.name ^ "." ^ o
           | _ -> netlist.Logic.Netlist.name
         in
         synthesize_sbdd ~options ~budget ~name sbdd)
      sbdds
  in
  results, merge_diagonal (List.map (fun r -> r.design) results)

(* ------------------------------------------------------------------ *)
(* Defect-aware repair *)

type repair_result = { base : result; repair : Repair.report }

let repair ?(options = default_options) ?budget ~defects netlist =
  let budget = budget_of_options ?budget options in
  Resilience.Budget.protect_oom @@ fun () ->
  (* Half the wall budget for the base synthesis, leaving the other half
     for however many resynthesis rungs the repair ladder climbs. *)
  let base =
    synthesize ~options
      ~budget:(Resilience.Budget.slice budget ~frac:0.5)
      netlist
  in
  (* The resynthesis rung of the ladder: re-label under hard capacity
     constraints so the new geometry dodges the offending devices. Each
     attempt gets half of whatever wall budget remains, so a ladder of
     attempts converges instead of the first one eating everything. *)
  let resynthesize ~max_rows ~max_cols =
    match
      synthesize
        ~options:
          { options with max_rows = Some max_rows; max_cols = Some max_cols }
        ~budget:(Resilience.Budget.slice budget ~frac:0.5)
        netlist
    with
    | r -> Some r.design
    | exception Label_mip.Infeasible _ -> None
    | exception Resilience.Budget.Exhausted _ -> None
  in
  let repair =
    Obs.Span.with_ "repair" (fun () ->
        Repair.run ~resynthesize ~defects
          ~inputs:netlist.Logic.Netlist.inputs
          ~outputs:netlist.Logic.Netlist.outputs
          ~reference:(Logic.Netlist.eval_point netlist)
          base.design)
  in
  { base; repair }

(* ------------------------------------------------------------------ *)
(* Variation-aware hardening *)

type harden_options = {
  spec : Crossbar.Variation.spec;
  margin_spec : float;
  analog_params : Crossbar.Analog.params;
  analog_opts : Crossbar.Analog.solver_opts;
  seed : int;
  margin_trials : int;
  mc_trials : int;
  alt_gammas : float list;
  alt_solvers : solver list;
  permutations : bool;
  jobs : int;
}

let default_harden_options =
  {
    spec = Crossbar.Variation.default_spec;
    margin_spec = 0.;
    analog_params = Crossbar.Analog.default_params;
    analog_opts = Crossbar.Analog.default_solver_opts;
    seed = Crossbar.Rng.default_seed;
    margin_trials = 24;
    mc_trials = 64;
    alt_gammas = [ 0.0; 1.0 ];
    alt_solvers = [ Heuristic ];
    permutations = true;
    jobs = 1;
  }

type candidate = {
  cand_label : string;
  cand_design : Crossbar.Design.t;
  cand_worst : float;
  cand_typical : float;
  cand_corners : (Crossbar.Variation.corner * Crossbar.Margin.analysis) list;
}

type harden_result = {
  base : result;
  candidates : candidate list;
  chosen : candidate;
  failing_outputs : (string * float) list;
  meets_spec : bool;
  mc : Crossbar.Margin.mc option;
  hardened_report : Report.t;
}

(* Structural identity of a design — permutations and re-labelings often
   collapse back onto the same geometry (reversing one row, labeling an
   already-optimal graph at another gamma), and scoring a duplicate
   wastes 4 corners worth of linear solves. *)
let design_fingerprint d =
  let cells = ref [] in
  Crossbar.Design.iter_programmed d (fun r c l -> cells := (r, c, l) :: !cells);
  ( Crossbar.Design.rows d,
    Crossbar.Design.cols d,
    Crossbar.Design.input d,
    Crossbar.Design.outputs d,
    List.rev !cells )

let score_candidate hopts ~inputs ~reference ~outputs (label, d) =
  Obs.Span.with_ ~attrs:[ "candidate", label ] "score"
  @@ fun () ->
  let corners =
    Crossbar.Margin.corners ~params:hopts.analog_params
      ~opts:hopts.analog_opts ~seed:hopts.seed ~trials:hopts.margin_trials
      ~spec:hopts.spec d ~inputs ~reference ~outputs
  in
  let typical =
    match List.assoc_opt Crossbar.Variation.Typical corners with
    | Some (a : Crossbar.Margin.analysis) -> a.worst
    | None -> nan
  in
  {
    cand_label = label;
    cand_design = d;
    cand_worst = Crossbar.Margin.worst_over_corners corners;
    cand_typical = typical;
    cand_corners = corners;
  }

let harden ?(options = default_options) ?(hopts = default_harden_options)
    ?budget netlist =
  let budget = budget_of_options ?budget options in
  Resilience.Budget.protect_oom @@ fun () ->
  Obs.Span.with_ ~attrs:[ "circuit", netlist.Logic.Netlist.name ] "harden"
  @@ fun () ->
  (* 40% of the wall budget for the base synthesis; labeling variants
     and candidate scoring share the remainder. *)
  let base =
    synthesize ~options
      ~budget:(Resilience.Budget.slice budget ~frac:0.4)
      netlist
  in
  let inputs = netlist.Logic.Netlist.inputs in
  let outputs = netlist.Logic.Netlist.outputs in
  let reference = Logic.Netlist.eval_point netlist in
  let name = netlist.Logic.Netlist.name in
  (* Stage 1: labeling variants, re-labeled on the shared preprocessed
     graph (the expensive BDD work is not repeated). A variant that
     raises (e.g. Infeasible) is simply not a candidate. *)
  let labeled = ref [ "base", base.design ] in
  let try_variant label options' =
    match
      synthesize_graph ~options:options'
        ~budget:(Resilience.Budget.slice budget ~frac:0.5)
        ~name base.bdd_graph
    with
    | r -> labeled := (label, r.design) :: !labeled
    | exception _ -> ()
  in
  List.iter
    (fun gamma ->
       if abs_float (gamma -. options.gamma) > 1e-9 then
         try_variant (Printf.sprintf "gamma=%.2f" gamma)
           { options with gamma })
    hopts.alt_gammas;
  List.iter
    (fun s ->
       if s <> options.solver then try_variant (solver_name s)
           { options with solver = s })
    hopts.alt_solvers;
  (* Stage 2: line permutations of every labeling. Electrically free to
     apply, and decisive once the spec has resistive wire segments. *)
  let variants =
    List.concat_map
      (fun (label, d) ->
         if not hopts.permutations then [ label, d ]
         else
           List.map
             (fun (plabel, p) ->
                ( (if String.equal plabel "identity" then label
                   else label ^ "/" ^ plabel),
                  Place.apply_permutation p d ))
             (Place.margin_candidates d))
      (List.rev !labeled)
  in
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun (_, d) ->
         let fp = design_fingerprint d in
         if Hashtbl.mem seen fp then false
         else begin
           Hashtbl.replace seen fp ();
           true
         end)
      variants
  in
  (* Stage 3: score and rank. Scoring (4 corners of linear solves per
     candidate) dominates harden's wall time and each score depends only
     on its own design, so candidates score on the pool; the merge is in
     generation order, keeping the ranking identical for any jobs count.
     stable_sort keeps generation order on exact ties, so "base" is
     never displaced by an equivalent variant. *)
  let scored =
    match
      Parallel.with_pool ~jobs:hopts.jobs (fun pool ->
          Parallel.map ~budget pool
            (score_candidate hopts ~inputs ~reference ~outputs)
            unique)
    with
    | scored -> scored
    | exception Resilience.Budget.Exhausted _ ->
      (* Budget died mid-scoring: degrade to the base candidate alone
         (scored outside the budget — some verified answer must ship)
         rather than ranking a partially-scored field. *)
      [ score_candidate hopts ~inputs ~reference ~outputs (List.hd unique) ]
  in
  let candidates =
    List.stable_sort
      (fun a b ->
         match compare b.cand_worst a.cand_worst with
         | 0 ->
           (match compare b.cand_typical a.cand_typical with
            | 0 ->
              compare
                (Crossbar.Design.semiperimeter a.cand_design)
                (Crossbar.Design.semiperimeter b.cand_design)
            | c -> c)
         | c -> c)
      scored
  in
  let chosen = List.hd candidates in
  (* Graceful degradation: per output, the worst margin across corners;
     report every output that misses the spec instead of failing. *)
  let failing_outputs =
    match chosen.cand_corners with
    | [] -> []
    | (_, (first : Crossbar.Margin.analysis)) :: _ ->
      List.filter_map
        (fun (om : Crossbar.Margin.output_margin) ->
           let worst =
             List.fold_left
               (fun acc (_, (a : Crossbar.Margin.analysis)) ->
                  List.fold_left
                    (fun acc (o : Crossbar.Margin.output_margin) ->
                       if String.equal o.om_output om.om_output then
                         min acc o.om_margin
                       else acc)
                    acc a.per_output)
               infinity chosen.cand_corners
           in
           if worst < hopts.margin_spec then Some (om.om_output, worst)
           else None)
        first.per_output
  in
  let mc =
    (* The MC stage is a pure add-on diagnostic: skip it outright once
       the budget is gone instead of letting it overrun the deadline. *)
    if hopts.mc_trials <= 0 || Resilience.Budget.exhausted budget then None
    else
      Some
        (Crossbar.Margin.monte_carlo ~params:hopts.analog_params
           ~opts:hopts.analog_opts ~seed:hopts.seed
           ~max_trials:hopts.mc_trials ~margin_spec:hopts.margin_spec
           ~jobs:hopts.jobs ~spec:hopts.spec chosen.cand_design ~inputs
           ~reference ~outputs)
  in
  let analog =
    List.fold_left
      (fun (acc : Report.analog_summary) (_, (a : Crossbar.Margin.analysis)) ->
         {
           acc with
           an_max_iterations = max acc.an_max_iterations a.max_iterations;
           an_max_residual = max acc.an_max_residual a.max_residual;
           an_max_condition = max acc.an_max_condition a.max_condition;
           an_fallbacks = acc.an_fallbacks + a.fallbacks;
           an_unconverged = acc.an_unconverged + a.unconverged;
         })
      {
        Report.an_worst_margin = chosen.cand_worst;
        an_max_iterations = 0;
        an_max_residual = 0.;
        an_max_condition = 0.;
        an_fallbacks = 0;
        an_unconverged = 0;
      }
      chosen.cand_corners
  in
  let hardened_report =
    {
      base.report with
      Report.analog = Some analog;
      deadline_hit =
        base.report.Report.deadline_hit || Resilience.Budget.exhausted budget;
    }
  in
  {
    base;
    candidates;
    chosen;
    failing_outputs;
    meets_spec = failing_outputs = [];
    mc;
    hardened_report;
  }
