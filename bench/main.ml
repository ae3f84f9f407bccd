(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (default), and runs bechamel micro-benchmarks of the kernels
   behind each experiment (`perf`).

   Usage:
     main.exe                 regenerate everything (default config)
     main.exe --quick         same with tight limits
     main.exe table1 … fig13  individual experiments
     main.exe perf            bechamel micro-benchmarks
     main.exe perf --json F   also dump kernel estimates as JSON to F
     main.exe --time-limit S  labeling budget per circuit *)

let usage () =
  print_endline
    "usage: main.exe [--quick] [--time-limit S] [--json FILE] [--jobs N] \
     [--trace FILE] \
     [all|table1|table2|table3|table4|fig9|fig10|fig11|fig12|fig13|robustness|variation|ablation|perf|obs-overhead|resilience-overhead|loadgen|restart-recovery|portfolio|metrics-overhead]...";
  exit 1

(* The jobs knob: --jobs N, defaulting to COMPACT_JOBS then 1. Read by
   the experiment config and by the parallel perf kernels below. *)
let bench_jobs = ref (Parallel.default_jobs ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table/figure.             *)

let cavlc_netlist = lazy ((Circuits.Suite.find "cavlc").generate ())
let ctrl_netlist = lazy ((Circuits.Suite.find "ctrl").generate ())
let c1908_netlist = lazy ((Circuits.Suite.find "c1908").generate ())

(* Linear XOR fold: every step rewrites the whole accumulated parity, so
   the kernel is dominated by ite/cache traffic rather than allocation. *)
let xor_chain man n =
  let acc = ref Bdd.Manager.zero in
  for i = 0 to n - 1 do
    acc := Bdd.Manager.xor man !acc (Bdd.Manager.var man i)
  done;
  !acc

(* Tournament parity: O(n log n) ite work, exercises deep worklists. *)
let balanced_parity man n =
  let rec reduce = function
    | [] -> Bdd.Manager.zero
    | [ x ] -> x
    | xs ->
      let rec pair = function
        | a :: b :: rest -> Bdd.Manager.xor man a b :: pair rest
        | tail -> tail
      in
      reduce (pair xs)
  in
  reduce (List.init n (Bdd.Manager.var man))

let ctrl_graph =
  lazy
    (let sbdd = Bdd.Sbdd.of_netlist (Lazy.force ctrl_netlist) in
     Compact.Preprocess.of_sbdd sbdd)

let int2float_graph =
  lazy
    (let nl = (Circuits.Suite.find "int2float").generate () in
     let sbdd = Bdd.Sbdd.of_netlist nl in
     Compact.Preprocess.of_sbdd sbdd)

let quickstart_design =
  lazy
    (let e = Logic.Parse.expr "(a & b) | c" in
     let r = Compact.Pipeline.synthesize_expr ~name:"bench" e in
     r.design)

let c1908_design =
  lazy
    (let options =
       {
         Compact.Pipeline.default_options with
         solver = Compact.Pipeline.Heuristic;
         time_limit = 5.;
       }
     in
     (Compact.Pipeline.synthesize ~options (Lazy.force c1908_netlist)).design)

let perf_tests =
  let open Bechamel in
  [
    (* Table I kernel: SBDD construction. *)
    Test.make ~name:"table1/sbdd-build-cavlc"
      (Staged.stage (fun () ->
           ignore (Bdd.Sbdd.of_netlist (Lazy.force cavlc_netlist))));
    (* Table II kernel: MIP labeling on a small graph. *)
    Test.make ~name:"table2/mip-labeling-ctrl"
      (Staged.stage (fun () ->
           ignore
             (Compact.Label_mip.solve
                ~budget:(Resilience.Budget.seconds 10.) ~gamma:0.5
                ~alignment:true (Lazy.force ctrl_graph))));
    (* Table III kernel: separate-ROBDD synthesis + diagonal merge. *)
    Test.make ~name:"table3/robdds-ctrl"
      (Staged.stage (fun () ->
           let options =
             { Compact.Pipeline.default_options with time_limit = 1. }
           in
           ignore
             (Compact.Pipeline.synthesize_separate_robdds ~options
                (Lazy.force ctrl_netlist))));
    (* Table IV kernels: the two competing mappers. *)
    Test.make ~name:"table4/staircase-ctrl"
      (Staged.stage (fun () ->
           ignore (Baseline.Staircase.synthesize (Lazy.force ctrl_netlist))));
    Test.make ~name:"table4/oct-labeling-ctrl"
      (Staged.stage (fun () ->
           ignore
             (Compact.Label_oct.solve
                ~budget:(Resilience.Budget.seconds 10.) ~alignment:true
                (Lazy.force ctrl_graph))));
    (* Fig 9 kernel: one gamma point (heuristic labeler). *)
    Test.make ~name:"fig9/heuristic-labeling-int2float"
      (Staged.stage (fun () ->
           ignore
             (Compact.Label_heuristic.solve
                ~budget:(Resilience.Budget.seconds 2.) ~gamma:0.3
                ~alignment:true (Lazy.force int2float_graph))));
    (* Fig 10/11 kernel: exact vertex cover on G□K2. *)
    Test.make ~name:"fig10/vertex-cover-ctrl"
      (Staged.stage (fun () ->
           ignore
             (Graphs.Vertex_cover.solve
                ~budget:(Resilience.Budget.seconds 10.)
                (Graphs.Product.with_k2 (Lazy.force ctrl_graph).graph))));
    (* Fig 12 kernel: digital crossbar evaluation. *)
    Test.make ~name:"fig12/crossbar-eval"
      (Staged.stage (fun () ->
           let d = Lazy.force quickstart_design in
           ignore (Crossbar.Eval.evaluate d (fun _ -> true))));
    (* Fig 13 kernel: CONTRA cost model. *)
    Test.make ~name:"fig13/contra-cost-cavlc"
      (Staged.stage (fun () ->
           ignore (Baseline.Contra.estimate (Lazy.force cavlc_netlist))));
    (* SPICE-lite validation kernel. *)
    Test.make ~name:"verify/analog-solve"
      (Staged.stage (fun () ->
           let d = Lazy.force quickstart_design in
           ignore (Crossbar.Analog.solve d (fun _ -> true))));
    (* Variation-hardening kernels: a fixed-budget Monte-Carlo margin
       estimate, and the lumped nodal solve on a big synthesised design
       (hundreds of nanowires, the CG-dominated regime). *)
    Test.make ~name:"analog/mc-margin-64"
      (Staged.stage (fun () ->
           let d = Lazy.force quickstart_design in
           ignore
             (Crossbar.Margin.monte_carlo ~max_trials:64 ~min_trials:64
                ~ci_halfwidth:0. ~spec:Crossbar.Variation.default_spec d
                ~inputs:[ "a"; "b"; "c" ]
                ~reference:(fun p -> [| (p.(0) && p.(1)) || p.(2) |])
                ~outputs:[ "bench_out" ])));
    Test.make ~name:"analog/solve-c1908"
      (Staged.stage (fun () ->
           let d = Lazy.force c1908_design in
           ignore (Crossbar.Analog.solve d (fun v -> Hashtbl.hash v land 1 = 0))));
    (* BDD engine kernels: the hot paths of the packed manager. *)
    Test.make ~name:"bdd/ite-xor-chain-64"
      (Staged.stage (fun () ->
           let man = Bdd.Manager.create ~num_vars:64 () in
           ignore (xor_chain man 64)));
    Test.make ~name:"bdd/ite-parity-4096"
      (Staged.stage (fun () ->
           let man = Bdd.Manager.create ~num_vars:4096 () in
           ignore (balanced_parity man 4096)));
    Test.make ~name:"bdd/sbdd-build-c1908"
      (Staged.stage (fun () ->
           ignore (Bdd.Sbdd.of_netlist (Lazy.force c1908_netlist))));
    (* Multicore kernels: the two parallel consumers, exercised through
       the domain pool. harden-ctrl follows the --jobs knob; the
       mc-margin kernel pins jobs=4 so the pooled path is measured even
       on a default run (on a single-core host it measures the pool's
       overhead, not a speedup). *)
    Test.make ~name:"par/harden-ctrl"
      (Staged.stage (fun () ->
           let options =
             { Compact.Pipeline.default_options with time_limit = 1. }
           in
           let hopts =
             { Compact.Pipeline.default_harden_options with
               mc_trials = 0; jobs = !bench_jobs }
           in
           ignore
             (Compact.Pipeline.harden ~options ~hopts
                (Lazy.force ctrl_netlist))));
    Test.make ~name:"par/mc-margin-64-j4"
      (Staged.stage (fun () ->
           let d = Lazy.force quickstart_design in
           ignore
             (Crossbar.Margin.monte_carlo ~max_trials:64 ~min_trials:64
                ~ci_halfwidth:0. ~jobs:4 ~spec:Crossbar.Variation.default_spec
                d
                ~inputs:[ "a"; "b"; "c" ]
                ~reference:(fun p -> [| (p.(0) && p.(1)) || p.(2) |])
                ~outputs:[ "bench_out" ])));
  ]

(* Wall-clock speedup of the parallel consumers at the requested jobs
   count versus jobs=1 — the number the issue's acceptance criteria track
   (meaningful only on a multicore host; expect ~1x on one core). *)
let parallel_workloads =
  [
    ( "mc-margin-200",
      fun jobs ->
        let d = Lazy.force quickstart_design in
        ignore
          (Crossbar.Margin.monte_carlo ~max_trials:200 ~min_trials:200
             ~ci_halfwidth:0. ~jobs ~spec:Crossbar.Variation.default_spec d
             ~inputs:[ "a"; "b"; "c" ]
             ~reference:(fun p -> [| (p.(0) && p.(1)) || p.(2) |])
             ~outputs:[ "bench_out" ]) );
    ( "harden-ctrl",
      fun jobs ->
        let options =
          { Compact.Pipeline.default_options with time_limit = 1. }
        in
        let hopts =
          { Compact.Pipeline.default_harden_options with mc_trials = 0; jobs }
        in
        ignore
          (Compact.Pipeline.harden ~options ~hopts (Lazy.force ctrl_netlist))
    );
  ]

let measure_speedups jobs =
  let wall f =
    let t0 = Obs.Clock.now () in
    f ();
    Obs.Clock.now () -. t0
  in
  List.map
    (fun (name, work) ->
       (* Warm the lazies so neither measurement pays the synthesis. *)
       work 1;
       let w1 = wall (fun () -> work 1) in
       let wj = wall (fun () -> work jobs) in
       name, w1, wj)
    parallel_workloads

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' | '\\' -> Buffer.add_char buf '\\'; Buffer.add_char buf c
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_perf_json path ~jobs ~speedups results =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"unit\": \"ns/run\",\n";
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  output_string oc "  \"parallel\": {\n";
  List.iteri
    (fun i (name, w1, wj) ->
       Printf.fprintf oc
         "    \"%s\": {\"wall_jobs1_s\": %.3f, \"wall_s\": %.3f, \
          \"speedup_vs_jobs1\": %.2f}%s\n"
         (json_escape name) w1 wj
         (w1 /. (if wj > 0. then wj else epsilon_float))
         (if i = List.length speedups - 1 then "" else ","))
    speedups;
  output_string oc "  },\n";
  output_string oc "  \"kernels\": {\n";
  List.iteri
    (fun i (name, est) ->
       Printf.fprintf oc "    \"%s\": %.1f%s\n" (json_escape name) est
         (if i = List.length results - 1 then "" else ","))
    results;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "perf results written to %s\n%!" path

(* One representative SBDD build with the engine counters printed, so the
   perf target also shows *why* the kernels are fast (hit rates). *)
let print_engine_stats () =
  let man = Bdd.Manager.create ~num_vars:4096 () in
  ignore (balanced_parity man 4096);
  Format.printf "@.-- engine counters: balanced 4096-var parity --@.%a@."
    Bdd.Manager.pp_stats (Bdd.Manager.stats man);
  let sbdd = Bdd.Sbdd.of_netlist (Lazy.force c1908_netlist) in
  Format.printf "-- engine counters: c1908 SBDD build --@.%a@."
    Bdd.Manager.pp_stats (Bdd.Sbdd.stats sbdd)

let run_perf ?json () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  print_endline "\n== perf: bechamel micro-benchmarks (monotonic clock) ==";
  let collected = ref [] in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let analysis =
         Analyze.all ols Toolkit.Instance.monotonic_clock results
       in
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              collected := (name, est) :: !collected;
              Printf.printf "  %-40s %14.1f ns/run\n%!" name est
            | Some _ | None -> Printf.printf "  %-40s (no estimate)\n%!" name)
         analysis)
    (List.map (fun t -> Test.make_grouped ~name:"perf" [ t ]) perf_tests);
  print_engine_stats ();
  let jobs = !bench_jobs in
  let speedups = measure_speedups jobs in
  Printf.printf "\n-- wall-clock speedup at --jobs %d vs jobs=1 --\n" jobs;
  List.iter
    (fun (name, w1, wj) ->
       Printf.printf "  %-24s %.3fs -> %.3fs  (%.2fx)\n" name w1 wj
         (w1 /. (if wj > 0. then wj else epsilon_float)))
    speedups;
  match json with
  | Some path -> write_perf_json path ~jobs ~speedups (List.rev !collected)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Tracing overhead on the two hot kernels the PR gate names.  Each is
   timed with recording off and on; the disabled number is comparable
   to the same kernel's pre-instrumentation estimate in BENCH_pr4.json,
   the enabled/disabled delta is the cost of live recording. *)

let overhead_kernels =
  [
    ( "bdd/ite-parity-4096", 5,
      fun () ->
        let man = Bdd.Manager.create ~num_vars:4096 () in
        ignore (balanced_parity man 4096) );
    ( "analog/solve-c1908", 3,
      fun () ->
        let d = Lazy.force c1908_design in
        ignore (Crossbar.Analog.solve d (fun v -> Hashtbl.hash v land 1 = 0))
    );
  ]

let run_obs_overhead ?json () =
  let saved = Obs.enabled () in
  let measure reps f =
    (* Best of three timed batches; recorded events are discarded
       outside the timed window so recording, not draining, is what is
       measured. *)
    let batch () =
      let t0 = Obs.Clock.now () in
      for _ = 1 to reps do
        f ()
      done;
      let dt = Obs.Clock.now () -. t0 in
      Obs.reset ();
      dt /. float_of_int reps *. 1e9
    in
    f ();
    Obs.reset ();
    List.fold_left min infinity (List.init 3 (fun _ -> batch ()))
  in
  print_endline "\n== obs-overhead: tracing disabled vs enabled (ns/run) ==";
  let rows =
    List.map
      (fun (name, reps, f) ->
         Obs.set_enabled false;
         let dis = measure reps f in
         Obs.set_enabled true;
         let en = measure reps f in
         Obs.set_enabled saved;
         let pct = 100. *. (en -. dis) /. dis in
         Printf.printf "  %-24s disabled %14.1f   enabled %14.1f   (%+.2f%%)\n%!"
           name dis en pct;
         name, dis, en, pct)
      overhead_kernels
  in
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "{\n  \"unit\": \"ns/run\",\n";
    output_string oc "  \"baseline\": \"BENCH_pr4.json kernels (pre-instrumentation)\",\n";
    output_string oc "  \"obs_overhead\": {\n";
    List.iteri
      (fun i (name, dis, en, pct) ->
         Printf.fprintf oc
           "    \"%s\": {\"disabled\": %.1f, \"enabled\": %.1f, \
            \"enabled_vs_disabled_pct\": %.2f}%s\n"
           (json_escape name) dis en pct
           (if i = List.length rows - 1 then "" else ","))
      rows;
    output_string oc "  }\n}\n";
    close_out oc;
    Printf.printf "obs-overhead results written to %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Resilience overhead: the PR-6 budget polls and injection checks sit
   in the same hot kernels the obs gate tracks (the BDD manager's
   grow-table path, the analog CG loop).  With injection disabled and no
   budget armed — the production default — each kernel must stay within
   1% of its PR-5 disabled estimate; the armed column shows the cost of
   a chaos configuration whose points never select these kernels.

   The recorded BENCH_pr5.json numbers embed the machine state of the
   run that produced them; on a drifted machine, point
   COMPACT_BENCH_BASELINE at a freshly measured obs-overhead JSON from
   a pre-resilience checkout for a like-for-like comparison. *)

let baseline_file () =
  match Sys.getenv_opt "COMPACT_BENCH_BASELINE" with
  | Some f when f <> "" -> f
  | _ -> "BENCH_pr5.json"

let pr5_disabled_baseline name =
  match In_channel.with_open_bin (baseline_file ()) In_channel.input_all with
  | exception Sys_error _ -> None
  | contents ->
    (match Obs.Json.parse contents with
     | exception Obs.Json.Parse_error _ -> None
     | j ->
       Option.bind (Obs.Json.member "obs_overhead" j) @@ fun sect ->
       Option.bind (Obs.Json.member name sect) @@ fun kernel ->
       (match Obs.Json.member "disabled" kernel with
        | Some (Obs.Json.Num f) -> Some f
        | _ -> None))

let run_resilience_overhead ?json () =
  let measure reps f =
    let batch () =
      let t0 = Obs.Clock.now () in
      for _ = 1 to reps do
        f ()
      done;
      (Obs.Clock.now () -. t0) /. float_of_int reps *. 1e9
    in
    f ();
    List.fold_left min infinity (List.init 5 (fun _ -> batch ()))
  in
  Printf.printf
    "\n== resilience-overhead: disabled path vs %s (ns/run) ==\n%!"
    (baseline_file ());
  let rows =
    List.map
      (fun (name, reps, f) ->
         Resilience.Inject.disable ();
         let dis = measure reps f in
         (* Arm a point these kernels never consult, so [fire] takes the
            armed slow path without perturbing the computation. *)
         let armed =
           Resilience.Inject.with_points [ Resilience.Inject.Defect_truncate ]
             (fun () -> measure reps f)
         in
         let pr5 = pr5_disabled_baseline name in
         let pct =
           match pr5 with
           | Some b when b > 0. -> 100. *. (dis -. b) /. b
           | Some _ | None -> nan
         in
         Printf.printf
           "  %-24s disabled %14.1f   armed %14.1f   vs pr5 %s\n%!" name dis
           armed
           (match pr5 with
            | Some b -> Printf.sprintf "%14.1f (%+.2f%%)" b pct
            | None -> Printf.sprintf "(no %s baseline)" (baseline_file ()));
         name, dis, armed, pr5, pct)
      overhead_kernels
  in
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "{\n  \"unit\": \"ns/run\",\n";
    Printf.fprintf oc
      "  \"baseline\": \"%s obs_overhead disabled kernels \
       (pre-resilience)\",\n"
      (json_escape (baseline_file ()));
    output_string oc "  \"resilience_overhead\": {\n";
    List.iteri
      (fun i (name, dis, armed, pr5, pct) ->
         Printf.fprintf oc
           "    \"%s\": {\"disabled\": %.1f, \"armed\": %.1f, \
            \"pr5_disabled\": %s, \"disabled_vs_pr5_pct\": %s}%s\n"
           (json_escape name) dis armed
           (match pr5 with Some b -> Printf.sprintf "%.1f" b | None -> "null")
           (if Float.is_nan pct then "null" else Printf.sprintf "%.2f" pct)
           (if i = List.length rows - 1 then "" else ","))
      rows;
    output_string oc "  }\n}\n";
    close_out oc;
    Printf.printf "resilience-overhead results written to %s\n%!" path

(* ------------------------------------------------------------------ *)
(* compactd loadgen: boot a real serving loop in a companion domain,
   drive the seeded mixed workload against it over the Unix socket, and
   record throughput, latency percentiles and cache behaviour.  The
   committed BENCH_pr7.json is this target's output. *)

let run_loadgen ?json () =
  Resilience.Inject.disable ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "compactd-bench-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let config =
    {
      (Server.Sock.default_config ~socket_path:socket) with
      Server.Sock.engine =
        { Server.Engine.default_config with Server.Engine.jobs = !bench_jobs };
    }
  in
  let server = Domain.spawn (fun () -> Server.Sock.serve config) in
  let seed = Crossbar.Rng.default_seed in
  let hot = 4 and hot_frac = 0.4 in
  let result =
    Server.Loadgen.run ~seed ~requests:200 ~hot ~hot_frac ~socket ()
  in
  (match Server.Client.connect ~retries:10 socket with
   | c ->
     (try ignore (Server.Client.request c {|{"op":"shutdown"}|})
      with End_of_file -> ());
     Server.Client.close c
   | exception _ -> ());
  ignore (Domain.join server : Server.Engine.stats);
  Format.printf "%a@." Server.Loadgen.pp result;
  let file = match json with Some f -> f | None -> "BENCH_pr7.json" in
  let oc = open_out file in
  output_string oc
    (Server.Loadgen.json_of_result ~seed ~hot ~hot_frac result);
  output_char oc '\n';
  close_out oc;
  Printf.printf "loadgen results written to %s\n%!" file

(* ------------------------------------------------------------------ *)
(* Restart/recovery costs for the durable design cache (PR-8):

   - recovery wall time against cache size, for both recovery paths —
     replaying a journal and loading a snapshot — over synthetic
     entries sized like real synth payloads (~1 KiB);
   - hit-path overhead of running the engine with a cache-dir versus
     purely in memory.  Hits never touch the journal, so the measured
     overhead should sit well inside the 5% budget.

   The committed BENCH_pr8.json is this target's output. *)

let run_restart_recovery ?json () =
  Resilience.Inject.disable ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "compactd-bench-recovery-%d" (Unix.getpid ()))
  in
  let clean () =
    if Sys.file_exists dir then
      Array.iter
        (fun f ->
           try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)
  in
  let payload i =
    (* Deterministic ~1 KiB value, the size of a small synth payload. *)
    let b = Buffer.create 1024 in
    Buffer.add_string b (Printf.sprintf "{\"design\":\"entry-%06d\"," i);
    let st = Crossbar.Rng.state 0x5eed ("bench-recovery", i) in
    while Buffer.length b < 1000 do
      Buffer.add_string b
        (Printf.sprintf "\"f%d\":%.6f," (Buffer.length b)
           (Random.State.float st 1.))
    done;
    Buffer.add_string b "\"end\":0}";
    Buffer.contents b
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    r, (Unix.gettimeofday () -. t0) *. 1e3
  in
  let recovery_rows =
    List.map
      (fun n ->
         clean ();
         (* Journal path: n appends, no snapshot, then recover. *)
         let p, _ = Server.Persist.open_dir dir in
         for i = 0 to n - 1 do
           Server.Persist.append p (Printf.sprintf "key-%06d" i) (payload i)
         done;
         let journal_bytes = Server.Persist.journal_bytes p in
         Server.Persist.close p;
         let (p2, rec1), journal_ms =
           time (fun () -> Server.Persist.open_dir dir)
         in
         assert (List.length rec1.Server.Persist.entries = n);
         (* Snapshot path: compact, then recover again. *)
         Server.Persist.snapshot p2 rec1.Server.Persist.entries;
         let snapshot_bytes = Server.Persist.snapshot_bytes p2 in
         Server.Persist.close p2;
         let (p3, rec2), snapshot_ms =
           time (fun () -> Server.Persist.open_dir dir)
         in
         assert (List.length rec2.Server.Persist.entries = n);
         Server.Persist.close p3;
         Printf.printf
           "recovery n=%-5d journal %7.2f ms (%7d B)   snapshot %7.2f ms \
            (%7d B)\n%!"
           n journal_ms journal_bytes snapshot_ms snapshot_bytes;
         n, journal_ms, journal_bytes, snapshot_ms, snapshot_bytes)
      [ 16; 64; 256; 1024 ]
  in
  clean ();
  (* Hit-path overhead: identical hit streams against an in-memory
     engine and a durable one. *)
  let line = {|{"op":"synth","id":1,"expr":"(a & b) | (c & ~d)"}|} in
  let hits = 2000 in
  let hit_stream config =
    let e = Server.Engine.create config in
    ignore (Server.Engine.handle e line : string);
    (* warm the path before timing *)
    for _ = 1 to 100 do
      ignore (Server.Engine.handle e line : string)
    done;
    (* Level the heap: the in-memory engine just ran a cold solve, the
       durable one may have recovered instead; without a compaction the
       difference in floating garbage reads as persistence overhead. *)
    Gc.compact ();
    let (), ms =
      time (fun () ->
          for _ = 1 to hits do
            ignore (Server.Engine.handle e line : string)
          done)
    in
    Server.Engine.close e;
    ms *. 1e3 /. float_of_int hits (* us per hit *)
  in
  (* Alternate the two configurations and keep each one's best run, so
     scheduler noise does not masquerade as persistence overhead. *)
  let durable_config =
    { Server.Engine.default_config with Server.Engine.cache_dir = Some dir }
  in
  let mem_us = ref infinity and persist_us = ref infinity in
  for _ = 1 to 5 do
    mem_us := Float.min !mem_us (hit_stream Server.Engine.default_config);
    persist_us := Float.min !persist_us (hit_stream durable_config)
  done;
  let mem_us = !mem_us and persist_us = !persist_us in
  clean ();
  let overhead_pct = (persist_us -. mem_us) /. mem_us *. 100. in
  Printf.printf
    "hit path: %.2f us/hit in memory, %.2f us/hit durable (%+.2f%%)\n%!"
    mem_us persist_us overhead_pct;
  let file = match json with Some f -> f | None -> "BENCH_pr8.json" in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"bench\": \"restart-recovery\",\n  \"payload_bytes\": 1000,\n\
    \  \"recovery\": [\n";
  List.iteri
    (fun i (n, jms, jb, sms, sb) ->
       Printf.fprintf oc
         "    {\"entries\": %d, \"journal_ms\": %.3f, \"journal_bytes\": \
          %d, \"snapshot_ms\": %.3f, \"snapshot_bytes\": %d}%s\n"
         n jms jb sms sb
         (if i = List.length recovery_rows - 1 then "" else ","))
    recovery_rows;
  Printf.fprintf oc
    "  ],\n  \"hit_path\": {\"hits\": %d, \"mem_us_per_hit\": %.3f, \
     \"persist_us_per_hit\": %.3f, \"overhead_pct\": %.3f, \
     \"budget_pct\": 5.0}\n}\n"
    hits mem_us persist_us overhead_pct;
  close_out oc;
  Printf.printf "restart-recovery results written to %s\n%!" file

(* ------------------------------------------------------------------ *)
(* PR-10: the telemetry plane's hit-path cost.

   The serve loop arms the metrics registry and the flight recorder for
   its whole lifetime, so the question that matters is what an armed
   telemetry plane costs on the cheapest request the server handles —
   the cache hit, where there is no solve to hide behind.  Same
   discipline as the PR-8 persistence bench: identical hit streams with
   telemetry off and on, alternated, best of five, so scheduler noise
   does not masquerade as recorder overhead.  Budget: the same <=5%%
   hit-path envelope PR 8 set for persistence. *)

let run_metrics_overhead ?json () =
  Resilience.Inject.disable ();
  let line = {|{"op":"synth","id":1,"expr":"(a & b) | (c & ~d)"}|} in
  let block = 200 and rounds = 50 in
  let hits = block * rounds in
  (* One shared engine, telemetry toggled around short interleaved
     blocks: frequency drift over a multi-second run then lands on both
     configurations equally, where back-to-back whole streams let a
     thermal ramp masquerade as telemetry overhead. *)
  let e = Server.Engine.create Server.Engine.default_config in
  ignore (Server.Engine.handle e line : string);
  for _ = 1 to 100 do
    ignore (Server.Engine.handle e line : string)
  done;
  let arm on =
    Obs.set_metrics_enabled on;
    Obs.Recorder.set_enabled on
  in
  (* One armed warmup block so the flight ring's one-time allocation
     is not billed to the first timed block. *)
  arm true;
  for _ = 1 to block do
    ignore (Server.Engine.handle e line : string)
  done;
  arm false;
  Gc.compact ();
  let timed_block () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to block do
      ignore (Server.Engine.handle e line : string)
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int block
  in
  let off_us = ref infinity and on_us = ref infinity in
  for _ = 1 to rounds do
    arm false;
    off_us := Float.min !off_us (timed_block ());
    arm true;
    on_us := Float.min !on_us (timed_block ())
  done;
  arm false;
  Server.Engine.close e;
  Obs.reset ();
  let off_us = !off_us and on_us = !on_us in
  let overhead_pct = (on_us -. off_us) /. off_us *. 100. in
  Printf.printf
    "hit path: %.2f us/hit telemetry off, %.2f us/hit armed (%+.2f%%)\n%!"
    off_us on_us overhead_pct;
  let file = match json with Some f -> f | None -> "BENCH_pr10.json" in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"bench\": \"metrics-overhead\",\n  \"hits\": %d,\n\
    \  \"off_us_per_hit\": %.3f,\n  \"on_us_per_hit\": %.3f,\n\
    \  \"overhead_pct\": %.3f,\n  \"budget_pct\": 5.0\n}\n"
    hits off_us on_us overhead_pct;
  close_out oc;
  Printf.printf "metrics-overhead results written to %s\n%!" file

(* ------------------------------------------------------------------ *)
(* PR-9: the racing portfolio and in-place sifting.

   Kernel 1 — portfolio/synth: wall time of sequential [Auto] versus the
   racing [Portfolio] on a kernel whose first Auto rung (the MIP)
   exhausts its time limit.  Auto pays the failed rung and then the
   heuristic rung back to back; the portfolio runs them concurrently
   under the same rung budgets, so its wall time is the slowest member
   of the deciding prefix (here the MIP's full limit), not the sum.
   Deadline-bound rungs burn wall time rather than exclusive CPU, so
   the overlap wins even on one core — the cost there is anytime
   quality, not wall time: entrants share cycles inside their windows,
   so the raced semiperimeter can sit above sequential Auto's.  The
   JSON records both semiperimeters alongside the speedup.

   Kernel 2 — bdd/sift-mult8: in-place Rudell sifting versus the
   anneal-rebuild order search on the 8-bit multiplier.  Sifting moves
   a variable by adjacent level exchanges inside the packed manager;
   annealing pays a full SBDD rebuild per move.

   The committed BENCH_pr9.json is this target's output. *)

let wall f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  r, Obs.Clock.now () -. t0

let best_of n f =
  let best = ref infinity and last = ref None in
  for _ = 1 to n do
    let r, w = wall f in
    last := Some r;
    if w < !best then best := w
  done;
  (match !last with Some r -> r | None -> assert false), !best

let run_portfolio_bench ?json () =
  Resilience.Inject.disable ();
  (* The race kernel: a MIP-primary graph (<= 160 nodes) and a time
     limit the MIP cannot prove optimality within, so sequential Auto
     burns the full limit before the heuristic rung even starts. The
     4-bit adder/comparator's 89-node conflict graph is MIP-hard at any
     practical limit while its heuristic rung completes inside one. *)
  let nl = Circuits.Arith.adder_comparator ~bits:4 () in
  let time_limit = 0.2 in
  let auto_opts =
    { Compact.Pipeline.default_options with time_limit; jobs = 1 }
  in
  let pf_opts =
    { auto_opts with
      Compact.Pipeline.solver = Compact.Pipeline.Portfolio;
      jobs = max 2 !bench_jobs }
  in
  let r_auto, w_auto =
    best_of 5 (fun () -> Compact.Pipeline.synthesize ~options:auto_opts nl)
  in
  let r_pf, w_pf =
    best_of 5 (fun () -> Compact.Pipeline.synthesize ~options:pf_opts nl)
  in
  let speedup = w_auto /. w_pf in
  let auto_path = r_auto.Compact.Pipeline.report.Compact.Report.solver_path in
  let pf_path = r_pf.Compact.Pipeline.report.Compact.Report.solver_path in
  Printf.printf
    "portfolio/synth-%s (t=%.3fs): auto %.1f ms (%s) vs portfolio %.1f ms \
     (%s) -> %.2fx\n\
     %!"
    nl.Logic.Netlist.name time_limit (w_auto *. 1e3)
    (String.concat "->" auto_path)
    (w_pf *. 1e3)
    (String.concat "->" pf_path)
    speedup;
  (* The sift kernel: the 8-bit multiplier under the best static
     candidate order, then improved in place versus by annealing
     rebuilds.  Same starting point, same budgetless conditions; the
     comparison is wall time to reach the better of the two sizes. *)
  let mult = Circuits.Arith.multiplier ~bits:8 () in
  let order, initial_size = Bdd.Sbdd.best_order mult in
  let (sift_size, sift_swaps, sift_passes), w_sift =
    best_of 3 (fun () ->
        let sbdd = Bdd.Sbdd.of_netlist ~order mult in
        let _, after = Bdd.Sbdd.sift sbdd in
        let stats = Bdd.Sbdd.stats sbdd in
        after, stats.Bdd.Manager.level_swaps, stats.Bdd.Manager.sift_passes)
  in
  let anneal_steps = 40 in
  let (anneal_size, anneal_evals), w_anneal =
    best_of 1 (fun () ->
        let order', stats =
          Bdd.Reorder.anneal ~steps:anneal_steps ~initial:order mult
        in
        let sbdd = Bdd.Sbdd.of_netlist ~order:order' mult in
        Bdd.Sbdd.size sbdd, stats.Bdd.Reorder.evaluations)
  in
  Printf.printf
    "bdd/sift-mult8: static %d nodes; sift -> %d nodes in %.1f ms (%d \
     swaps, %d passes); anneal(%d) -> %d nodes in %.1f ms (%d rebuilds) \
     -> %.1fx\n\
     %!"
    initial_size sift_size (w_sift *. 1e3) sift_swaps sift_passes
    anneal_steps anneal_size (w_anneal *. 1e3) anneal_evals
    (w_anneal /. w_sift);
  let file = match json with Some f -> f | None -> "BENCH_pr9.json" in
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"portfolio\",\n\
    \  \"synth\": {\n\
    \    \"circuit\": \"%s\",\n\
    \    \"time_limit_s\": %.3f,\n\
    \    \"jobs\": %d,\n\
    \    \"auto_ms\": %.3f,\n\
    \    \"auto_path\": \"%s\",\n\
    \    \"portfolio_ms\": %.3f,\n\
    \    \"portfolio_path\": \"%s\",\n\
    \    \"auto_semiperimeter\": %d,\n\
    \    \"portfolio_semiperimeter\": %d,\n\
    \    \"speedup\": %.3f\n\
    \  },\n\
    \  \"sift\": {\n\
    \    \"circuit\": \"mult8\",\n\
    \    \"static_nodes\": %d,\n\
    \    \"sift_nodes\": %d,\n\
    \    \"sift_ms\": %.3f,\n\
    \    \"level_swaps\": %d,\n\
    \    \"sift_passes\": %d,\n\
    \    \"anneal_steps\": %d,\n\
    \    \"anneal_nodes\": %d,\n\
    \    \"anneal_ms\": %.3f,\n\
    \    \"anneal_rebuilds\": %d,\n\
    \    \"speedup\": %.3f\n\
    \  }\n\
     }\n"
    nl.Logic.Netlist.name time_limit pf_opts.Compact.Pipeline.jobs
    (w_auto *. 1e3)
    (String.concat "->" auto_path)
    (w_pf *. 1e3)
    (String.concat "->" pf_path)
    r_auto.Compact.Pipeline.report.Compact.Report.semiperimeter
    r_pf.Compact.Pipeline.report.Compact.Report.semiperimeter speedup
    initial_size sift_size (w_sift *. 1e3) sift_swaps sift_passes
    anneal_steps anneal_size (w_anneal *. 1e3) anneal_evals
    (w_anneal /. w_sift);
  close_out oc;
  Printf.printf "portfolio results written to %s\n%!" file

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let time_limit = ref None in
  let json = ref None in
  let trace = ref None in
  let rec parse = function
    | "--time-limit" :: v :: rest ->
      time_limit := Some (float_of_string v);
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse rest
    | ("--jobs" | "-j") :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 -> bench_jobs := n
       | Some _ | None ->
         Printf.eprintf "--jobs needs an integer >= 1, got %s\n" v;
         usage ());
      parse rest
    | x :: rest -> x :: parse rest
    | [] -> []
  in
  let targets = parse (List.filter (fun a -> a <> "--quick") args) in
  let config =
    let base =
      if quick then Harness.Experiments.quick_config
      else Harness.Experiments.default_config
    in
    let base = { base with Harness.Experiments.jobs = !bench_jobs } in
    match !time_limit with
    | Some t -> { base with Harness.Experiments.time_limit = t }
    | None -> base
  in
  let dispatch = function
    | "all" -> Harness.Experiments.run_all config
    | "table1" -> ignore (Harness.Experiments.table1 config)
    | "table2" -> ignore (Harness.Experiments.table2 config)
    | "table3" -> ignore (Harness.Experiments.table3 config)
    | "table4" -> ignore (Harness.Experiments.table4 config)
    | "fig9" -> ignore (Harness.Experiments.fig9 config)
    | "fig10" -> ignore (Harness.Experiments.fig10 config)
    | "fig11" -> ignore (Harness.Experiments.fig11 config)
    | "fig12" -> ignore (Harness.Experiments.fig12 config)
    | "fig13" -> ignore (Harness.Experiments.fig13 config)
    | "robustness" -> ignore (Harness.Experiments.robustness config)
    | "variation" -> ignore (Harness.Experiments.variation config)
    | "ablation" -> Harness.Ablation.run_all config
    | "perf" -> run_perf ?json:!json ()
    | "obs-overhead" -> run_obs_overhead ?json:!json ()
    | "resilience-overhead" -> run_resilience_overhead ?json:!json ()
    | "loadgen" -> run_loadgen ?json:!json ()
    | "restart-recovery" -> run_restart_recovery ?json:!json ()
    | "portfolio" -> run_portfolio_bench ?json:!json ()
    | "metrics-overhead" -> run_metrics_overhead ?json:!json ()
    | other ->
      Printf.eprintf "unknown target %s\n" other;
      usage ()
  in
  (match !trace with
   | None -> ()
   | Some _ ->
     Obs.set_enabled true;
     Obs.reset ());
  (match targets with
   | [] -> Harness.Experiments.run_all config
   | ts -> List.iter dispatch ts);
  match !trace with
  | None -> ()
  | Some file ->
    let snap = Obs.drain () in
    if Filename.check_suffix file ".jsonl" then Obs.Export.write_jsonl file snap
    else Obs.Export.write_chrome file snap;
    Printf.eprintf "trace: %d events -> %s\n%!" (List.length snap.Obs.events)
      file
