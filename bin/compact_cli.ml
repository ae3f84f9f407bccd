(* COMPACT command-line interface.

   Pipeline subcommands, each over one input source (--expr, --blif,
   --pla, --verilog or --circuit) and the shared synthesis options:
     synth        synthesise a crossbar design
     sweep        gamma sweep, printing the non-dominated designs
     validate     synthesise then verify digitally (+ optionally analog)
     repair       fit the design onto a faulty array given as a defect map
     yield        repair yield over random faulty arrays, or one map
     margin       read-margin corners and Monte-Carlo yield under variation
     harden       pick the variant and placement with the best margin
     profile      per-phase time/allocation table (or replay a trace)
   Tools:
     trace-check  validate a --trace output file
     suite        list the built-in benchmark circuits
     export       write a built-in benchmark as BLIF/PLA/Verilog, or its
                  BDD as DOT
     experiments  regenerate the paper's tables and figures
   compactd, the synthesis server:
     serve        run it on a Unix-domain socket
     client       send it requests
     metrics      fetch its metrics or health snapshot
     loadgen      drive a seeded mixed workload against it

   Bad input (an unparsable source, an unknown name, an out-of-range
   value) is an argument error whose message names the option, exit
   124; exit 125, an uncaught exception, is left to bugs. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Converters *)

(* [conv] restricted to the values satisfying [ok]. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)

let non_negative_int =
  checked Arg.int ~expected:"an integer >= 0" (fun n -> n >= 0)

let positive_seconds =
  checked Arg.float ~expected:"a positive number of seconds" (fun s -> s > 0.)

let probability =
  checked Arg.float ~expected:"a probability in [0, 1]" (fun p ->
      p >= 0. && p <= 1.)

(* Exact names only: [Arg.enum] would also accept unambiguous prefixes. *)
let named what table =
  let parse s =
    match List.assoc_opt s table with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %s" what s))
  in
  let print ppf v =
    Format.pp_print_string ppf (fst (List.find (fun (_, v') -> v' == v) table))
  in
  Arg.conv (parse, print)

(* ------------------------------------------------------------------ *)
(* Input selection *)

(* A source is read into its netlist while the arguments are parsed, so
   a bad one is an argument error, worded the way compactd words it.
   lib/logic and lib/circuits record no spans, so reading before
   [with_trace] arms tracing leaves every trace unchanged. *)
let netlist_conv read =
  let parse s =
    match read s with
    | r -> r
    | exception Logic.Parse.Error msg -> Error (`Msg ("bad expression: " ^ msg))
    | exception Logic.Blif.Parse_error { line; message } ->
      Error (`Msg (Printf.sprintf "bad BLIF (line %d): %s" line message))
    | exception Logic.Pla.Parse_error { line; message } ->
      Error (`Msg (Printf.sprintf "bad PLA (line %d): %s" line message))
    | exception Logic.Verilog.Parse_error { line; message } ->
      Error (`Msg (Printf.sprintf "bad Verilog (line %d): %s" line message))
    | exception Logic.Netlist.Ill_formed msg ->
      Error (`Msg ("ill-formed netlist: " ^ msg))
    | exception Sys_error msg -> Error (`Msg msg)
  in
  let print ppf (nl : Logic.Netlist.t) = Format.pp_print_string ppf nl.name in
  Arg.conv (parse, print)

let circuit_conv =
  netlist_conv (fun name ->
      match Circuits.Suite.find name with
      | e -> Ok (e.Circuits.Suite.generate ())
      | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown circuit %S" name)))

let file_conv read =
  netlist_conv (fun path -> Result.map read (Arg.conv_parser Arg.file path))

(* [profile] alone also accepts [--from FILE] instead of a source, so it
   consumes the optional form. *)
let source_opt_term =
  let source names c ~docv ~doc =
    Arg.(value & opt (some c) None & info names ~docv ~doc)
  in
  let expr =
    source [ "e"; "expr" ] ~docv:"EXPR"
      ~doc:"Boolean expression, e.g. '(a & b) | c'."
      (netlist_conv (fun s ->
           Ok (Logic.Netlist.of_expr ~name:"expr" (Logic.Parse.expr s))))
  in
  let blif =
    source [ "blif" ] ~docv:"FILE" ~doc:"BLIF netlist file."
      (file_conv Logic.Blif.parse_file)
  in
  let pla =
    source [ "pla" ] ~docv:"FILE" ~doc:"PLA file."
      (file_conv (fun f -> Logic.Pla.to_netlist (Logic.Pla.parse_file f)))
  in
  let verilog =
    source [ "verilog" ] ~docv:"FILE" ~doc:"Structural Verilog netlist file."
      (file_conv Logic.Verilog.parse_file)
  in
  let circuit =
    source [ "c"; "circuit" ] ~docv:"NAME"
      ~doc:"Built-in benchmark (see the suite subcommand)." circuit_conv
  in
  let one expr blif pla verilog circuit =
    match List.filter_map Fun.id [ expr; blif; pla; verilog; circuit ] with
    | [] -> Ok None
    | [ nl ] -> Ok (Some nl)
    | _ -> Error (`Msg "give exactly one input source")
  in
  Term.(term_result (const one $ expr $ blif $ pla $ verilog $ circuit))

let source_term =
  let require = function
    | Some nl -> Ok nl
    | None ->
      Error
        (`Msg "one of --expr, --blif, --pla, --verilog, --circuit is required")
  in
  Term.(term_result (const require $ source_opt_term))

(* ------------------------------------------------------------------ *)
(* Synthesis options *)

let solver_conv =
  let parse s =
    match Compact.Pipeline.solver_of_name s with
    | Some solver -> Ok solver
    | None -> Error (`Msg (Printf.sprintf "unknown solver %s" s))
  in
  let print ppf s = Format.pp_print_string ppf (Compact.Pipeline.solver_name s) in
  Arg.conv (parse, print)

(* [-j]/[--jobs] rides on the shared options term, so every synthesis
   subcommand (synth, sweep, validate, repair, yield, margin, harden)
   accepts it. Resolution order: flag, then COMPACT_JOBS (parsed by
   cmdliner's env support, so garbage is a proper CLI error), then 1. *)
let jobs_term =
  let arg =
    Arg.(value
         & opt (some positive_int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~env:(Cmd.Env.info "COMPACT_JOBS"
                     ~doc:"Default worker-domain count when $(b,-j) is absent.")
             ~doc:"Worker domains for the parallel stages (harden candidate \
                   scoring, Monte-Carlo sampling, compactd's solve \
                   batches). Results are identical for every jobs count; \
                   1 (the default) is the sequential path.")
  in
  Term.(const (Option.value ~default:1) $ arg)

(* [--trace] rides on every pipeline subcommand.  The run executes with
   recording enabled and the drained events are written at exit: a
   [.jsonl] suffix selects the flat JSONL log, anything else the Chrome
   trace_event format (loadable in Perfetto / chrome://tracing).  The
   COMPACT_TRACE environment variable supplies the same value; a bare
   switch ("1", "true", "yes", "on") enables recording without writing
   a file, so `COMPACT_TRACE=1 dune runtest` exercises the traced
   code paths. *)
let trace_term =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~env:(Cmd.Env.info "COMPACT_TRACE"
                   ~doc:"Trace output file when $(b,--trace) is absent; a \
                         bare switch value (1/true/yes/on) records without \
                         writing a file.")
           ~doc:"Record an execution trace of the run and write it to \
                 $(docv). A .jsonl suffix writes the flat JSONL event log; \
                 any other name writes Chrome trace_event JSON for \
                 Perfetto / chrome://tracing.")

let trace_switches = [ "1"; "true"; "yes"; "on" ]

(* Fail fast on an unwritable --trace target: a run that spends its
   whole deadline synthesising should not discover at exit that the
   trace cannot be written.  Parent directories are created; the probe
   open creates the file without truncating an existing one. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let prepare_trace_file file =
  try
    mkdir_p (Filename.dirname file);
    let oc = open_out_gen [ Open_wronly; Open_creat ] 0o644 file in
    close_out oc;
    Ok ()
  with Sys_error msg ->
    Error (`Msg (Printf.sprintf "--trace %s: not writable (%s)" file msg))

(* The runtime failures a run can end in, as structured CLI errors: a
   budget that exhausts in a stage with no partial result (BDD build,
   memory) and unsatisfiable design constraints.  Any other exception
   is a bug and still escapes loudly. *)
let guarded k =
  match k () with
  | r -> r
  | exception Resilience.Budget.Exhausted r ->
    Error
      (`Msg
         (Format.asprintf "budget exhausted (%a) before a result was produced"
            Resilience.Budget.pp_reason r))
  | exception Compact.Label_mip.Infeasible msg ->
    Error (`Msg ("design constraints are infeasible: " ^ msg))

let with_trace trace k =
  let k () = guarded k in
  match trace with
  | None -> k ()
  | Some file ->
    let bare = List.mem (String.lowercase_ascii file) trace_switches in
    (match if bare then Ok () else prepare_trace_file file with
     | Error _ as e -> e
     | Ok () ->
    Obs.set_enabled true;
    (* Drop anything recorded before the subcommand body (argument
       parsing never records, but be safe). *)
    Obs.reset ();
    let finish () =
      let snap = Obs.drain () in
      Obs.set_enabled false;
      let n = List.length snap.Obs.events in
      if bare then
        Printf.eprintf
          "trace: %d events recorded (give --trace FILE to write them)\n%!" n
      else begin
        if Filename.check_suffix file ".jsonl" then
          Obs.Export.write_jsonl file snap
        else Obs.Export.write_chrome file snap;
        Printf.eprintf "trace: %d events -> %s\n%!" n file
      end
    in
    Fun.protect ~finally:finish k)

let options_term =
  let gamma =
    Arg.(value & opt float 0.5
         & info [ "g"; "gamma" ] ~docv:"G"
             ~doc:"Objective weight: minimise G*S + (1-G)*D.")
  in
  let solver =
    Arg.(value & opt solver_conv Compact.Pipeline.Auto
         & info [ "solver" ] ~docv:"S"
             ~doc:"VH-labeling solver: auto (the labeling ladder: MIP or \
                   heuristic, then oct-greedy), oct, oct-greedy, mip or \
                   heuristic.")
  in
  let time_limit =
    Arg.(value & opt float 30.
         & info [ "t"; "time-limit" ] ~docv:"SEC"
             ~doc:"Labeling time budget in seconds.")
  in
  let deadline =
    Arg.(value & opt (some positive_seconds) None
         & info [ "deadline" ] ~docv:"SEC"
             ~env:(Cmd.Env.info "COMPACT_DEADLINE"
                     ~doc:"Default end-to-end deadline when \
                           $(b,--deadline) is absent.")
             ~doc:"End-to-end wall deadline in seconds for the whole \
                   run. When it expires the pipeline degrades \
                   gracefully to the cheapest labeling method and \
                   returns a verified design with DEADLINE HIT in the \
                   report (non-zero exit); it never wedges.")
  in
  let no_alignment =
    Arg.(value & flag
         & info [ "no-alignment" ]
             ~doc:"Drop the Eq 7 constraints forcing ports onto wordlines.")
  in
  let max_rows =
    Arg.(value & opt (some int) None
         & info [ "max-rows" ] ~docv:"N"
             ~doc:"Hard wordline capacity (forces the MIP solver).")
  in
  let max_cols =
    Arg.(value & opt (some int) None
         & info [ "max-cols" ] ~docv:"N" ~doc:"Hard bitline capacity.")
  in
  let make gamma solver time_limit deadline no_alignment max_rows max_cols
      jobs =
    {
      Compact.Pipeline.default_options with
      gamma;
      solver;
      time_limit;
      deadline;
      alignment = not no_alignment;
      max_rows;
      max_cols;
      jobs;
    }
  in
  Term.(
    const make $ gamma $ solver $ time_limit $ deadline $ no_alignment
    $ max_rows $ max_cols $ jobs_term)

(* ------------------------------------------------------------------ *)
(* Subcommand wiring *)

(* A subcommand whose body returns a result; an [Error] is a CLI error
   (exit 124). *)
let cmd name ~doc body = Cmd.v (Cmd.info name ~doc) (Term.term_result body)

(* A subcommand whose body runs under --trace and [guarded]. *)
let traced_cmd name ~doc body =
  cmd name ~doc Term.(const with_trace $ trace_term $ body)

(* A pipeline subcommand: [body] takes its own flags and returns a run
   over the source's netlist and the shared synthesis options. *)
let pipeline_cmd name ~doc body =
  traced_cmd name ~doc
    Term.(
      const (fun nl options run () -> run nl options)
      $ source_term $ options_term $ body)

(* ------------------------------------------------------------------ *)

let print_grid =
  Arg.(value & flag
       & info [ "grid" ] ~doc:"Print the crossbar contents (small designs).")

let print_stats =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the BDD engine's unique-table, apply-cache and \
                 reordering counters.")

(* [--reorder sift] runs the variable-order step inside the pipeline
   ([Pipeline.synthesize ~sift:true]): build the static candidate orders
   under the run's budget, sift the smallest diagram in place, and
   synthesise it. *)
let reorder_term =
  Arg.(value
       & opt (named "reorder mode" [ "none", `None; "sift", `Sift ]) `None
       & info [ "reorder" ] ~docv:"MODE"
           ~doc:"Variable-order optimisation before synthesis: none \
                 (default) or sift (build once, then in-place Rudell \
                 sifting).")

let synth_run reorder grid stats nl options =
  let sift = reorder = `Sift in
  let result = Compact.Pipeline.synthesize ~options ~sift nl in
  Format.printf "%a@." Compact.Report.pp result.report;
  if stats then begin
    match result.report.bdd_stats with
    | Some s -> Format.printf "%a@." Bdd.Manager.pp_stats s
    | None -> Format.printf "no BDD engine statistics recorded@."
  end;
  if grid then Format.printf "%a@." Crossbar.Design.pp result.design;
  if result.report.Compact.Report.deadline_hit then
    Error
      (`Msg
         (Printf.sprintf
            "deadline hit: returned the degraded incumbent (solver path: \
             %s)"
            (String.concat " -> "
               result.report.Compact.Report.solver_path)))
  else Ok ()

let synth_cmd =
  pipeline_cmd "synth" ~doc:"Synthesise a crossbar design with COMPACT"
    Term.(const synth_run $ reorder_term $ print_grid $ print_stats)

(* ------------------------------------------------------------------ *)

let sweep_run steps nl options =
  let points = ref [] in
  for i = 0 to steps do
    let gamma = float_of_int i /. float_of_int steps in
    let options = { options with Compact.Pipeline.gamma } in
    let r = Compact.Pipeline.synthesize ~options nl in
    points := (gamma, r.report.rows, r.report.cols) :: !points
  done;
  Format.printf "gamma  rows  cols@.";
  List.iter
    (fun (g, r, c) -> Format.printf "%5.2f  %4d  %4d@." g r c)
    (List.rev !points);
  let dominated (r1, c1) =
    List.exists
      (fun (_, r2, c2) -> (r2 <= r1 && c2 < c1) || (r2 < r1 && c2 <= c1))
      !points
  in
  let pareto =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, r, c) -> if dominated (r, c) then None else Some (r, c))
         !points)
  in
  Format.printf "non-dominated:@.";
  List.iter (fun (r, c) -> Format.printf "  (%d, %d)@." r c) pareto;
  Ok ()

let sweep_cmd =
  let steps =
    Arg.(value & opt int 10
         & info [ "steps" ] ~docv:"N" ~doc:"Number of gamma steps.")
  in
  pipeline_cmd "sweep"
    ~doc:"Sweep gamma and report the non-dominated (rows, cols) designs"
    Term.(const sweep_run $ steps)

(* ------------------------------------------------------------------ *)

let validate_run analog trials nl options =
  let result = Compact.Pipeline.synthesize ~options nl in
  Format.printf "%a@." Compact.Report.pp result.report;
  let digital =
    if Logic.Netlist.num_inputs nl <= 14 then begin
      let tt = Logic.Netlist.to_truth_table nl in
      Format.printf "digital check: exhaustive over %d assignments@."
        (1 lsl Logic.Netlist.num_inputs nl);
      Crossbar.Verify.against_table result.design ~reference:tt
    end
    else begin
      Format.printf "digital check: %d random assignments@." trials;
      Crossbar.Verify.random ~trials result.design ~inputs:nl.inputs
        ~reference:(Logic.Netlist.eval_point nl)
        ~outputs:nl.outputs
    end
  in
  (match digital with
   | Crossbar.Verify.Ok -> Format.printf "digital check: PASS@."
   | Crossbar.Verify.Failed cex ->
     Format.printf "digital check: FAIL (%a)@."
       Crossbar.Verify.pp_counterexample cex);
  if analog then begin
    let agree =
      Crossbar.Analog.agrees_with_digital ~trials:(min trials 32) result.design
    in
    Format.printf "analog (nodal-analysis) check: %s@."
      (if agree then "PASS" else "FAIL")
  end;
  match digital with
  | Crossbar.Verify.Ok -> Ok ()
  | Crossbar.Verify.Failed _ -> Error (`Msg "verification failed")

let validate_cmd =
  let analog =
    Arg.(value & flag
         & info [ "analog" ]
             ~doc:"Also validate electrically with the resistive-network solver.")
  in
  let trials =
    Arg.(value & opt int 256
         & info [ "trials" ] ~docv:"N" ~doc:"Random trials for large circuits.")
  in
  pipeline_cmd "validate" ~doc:"Synthesise and verify a design functionally"
    Term.(const validate_run $ analog $ trials)

(* ------------------------------------------------------------------ *)

let suite_run () =
  Format.printf "%-10s %-13s %4s %4s  %s@." "name" "category" "in" "out"
    "description";
  List.iter
    (fun (e : Circuits.Suite.entry) ->
       Format.printf "%-10s %-13s %4d %4d  %s@." e.name
         (match e.category with
          | Circuits.Suite.Iscas85 -> "iscas85"
          | Circuits.Suite.Epfl_control -> "epfl-control")
         e.paper_inputs e.paper_outputs e.description)
    Circuits.Suite.all;
  Ok ()

let suite_cmd =
  cmd "suite" ~doc:"List the built-in benchmark circuits"
    Term.(const suite_run $ const ())

(* ------------------------------------------------------------------ *)

let export_run nl format path =
  match format with
  | `Blif ->
    Logic.Blif.write_file path nl;
    Ok ()
  | `Pla ->
    if Logic.Netlist.num_inputs nl > 14 then
      Error (`Msg "pla export needs <= 14 inputs")
    else begin
      Logic.Pla.write_file path
        (Logic.Pla.of_truth_table (Logic.Netlist.to_truth_table nl));
      Ok ()
    end
  | `Verilog ->
    Logic.Verilog.write_file path nl;
    Ok ()
  | `Dot ->
    Bdd.Dot.write_file path (Bdd.Sbdd.of_netlist nl);
    Ok ()

let export_cmd =
  let circuit_arg =
    Arg.(required & pos 0 (some circuit_conv) None
         & info [] ~docv:"CIRCUIT" ~doc:"Benchmark name.")
  in
  let format_arg =
    Arg.(value
         & opt
             (named "format"
                [ "blif", `Blif; "pla", `Pla; "verilog", `Verilog; "dot", `Dot ])
             `Blif
         & info [ "f"; "format" ] ~docv:"FMT" ~doc:"blif, pla, verilog or dot.")
  in
  let path_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FILE" ~doc:"Output file.")
  in
  cmd "export" ~doc:"Write a benchmark as BLIF/PLA or its BDD as DOT"
    Term.(const export_run $ circuit_arg $ format_arg $ path_arg)

(* ------------------------------------------------------------------ *)
(* Defect-aware repair *)

let defects_conv =
  let parse file =
    match Crossbar.Defect_map.parse_file file with
    | map -> Ok map
    | exception Crossbar.Defect_map.Parse_error { line; msg } ->
      Error
        (`Msg
           (if line > 0 then Printf.sprintf "%s: line %d: %s" file line msg
            else Printf.sprintf "%s: %s" file msg))
    | exception Failure msg -> Error (`Msg (file ^ ": " ^ msg))
    | exception Invalid_argument msg -> Error (`Msg (file ^ ": " ^ msg))
    | exception Sys_error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( (fun s -> Result.bind (Arg.conv_parser Arg.file s) parse),
      Crossbar.Defect_map.pp )

let repair_run defects grid nl options =
  let { Compact.Pipeline.base; repair } =
    Compact.Pipeline.repair ~options ~defects nl
  in
  Format.printf "%a@." Compact.Report.pp base.report;
  Format.printf "array: %a@." Crossbar.Defect_map.pp defects;
  Format.printf "%a@." Compact.Repair.pp repair;
  match repair.outcome with
  | Compact.Repair.Repaired { design; _ } ->
    if grid then Format.printf "%a@." Crossbar.Design.pp design;
    Ok ()
  | Compact.Repair.Degraded { correct; failed; _ } ->
    Error
      (`Msg
         (Printf.sprintf "degraded: %d output(s) lost, %d survive"
            (List.length failed) (List.length correct)))
  | Compact.Repair.Unplaceable msg -> Error (`Msg ("unplaceable: " ^ msg))

let repair_cmd =
  let defects =
    Arg.(required & opt (some defects_conv) None
         & info [ "d"; "defects" ] ~docv:"FILE"
             ~doc:"Defect map of the physical array (see DESIGN.md for the \
                   text format).")
  in
  pipeline_cmd "repair"
    ~doc:"Synthesise and fit the design onto a faulty crossbar array"
    Term.(const repair_run $ defects $ print_grid)

(* ------------------------------------------------------------------ *)

let yield_single base nl defects verify_trials seed =
  let open Compact in
  match
    Place.find ~use_spares:true ~respect_faults:false defects
      base.Pipeline.design
  with
  | None -> Error (`Msg "design does not fit the array's healthy lines")
  | Some pl ->
    let phys = Place.apply defects pl base.Pipeline.design in
    let results =
      Crossbar.Verify.per_output ~seed ~trials:verify_trials phys
        ~inputs:nl.Logic.Netlist.inputs
        ~reference:(Logic.Netlist.eval_point nl)
        ~outputs:nl.Logic.Netlist.outputs
    in
    Format.printf "array: %a@." Crossbar.Defect_map.pp defects;
    List.iter
      (fun (o, cex) ->
         match cex with
         | None -> Format.printf "  %-16s ok@." o
         | Some c ->
           Format.printf "  %-16s FAIL  %a@." o
             Crossbar.Verify.pp_counterexample c)
      results;
    let ok = List.length (List.filter (fun (_, c) -> c = None) results) in
    Format.printf "%d/%d outputs survive without repair@." ok
      (List.length results);
    Ok ()

let yield_monte_carlo base nl rate line_rate spare_rows spare_cols trials seed
    jobs =
  let open Compact in
  let rows = Crossbar.Design.rows base.Pipeline.design + spare_rows in
  let cols = Crossbar.Design.cols base.Pipeline.design + spare_cols in
  let inputs = nl.Logic.Netlist.inputs and outputs = nl.Logic.Netlist.outputs in
  let reference = Logic.Netlist.eval_point nl in
  let permutation = ref 0
  and spares = ref 0
  and unconstrained = ref 0
  and degraded = ref 0
  and unplaceable = ref 0 in
  (* Each trial is a pure function of (seed, k), so trials fan out on
     the pool; the tallies below are order-independent counts anyway. *)
  let run_trial k =
    let map =
      Crossbar.Defect_map.random
        ~seed:(Hashtbl.hash (seed, k))
        ~line_rate ~spare_rows ~spare_cols ~rate ~rows ~cols ()
    in
    (* No resynthesis rung: one synthesis per trial would dominate the
       Monte-Carlo loop, and the estimate is for the placement ladder. *)
    let rep =
      Repair.run ~seed:(Hashtbl.hash (seed, k, `Verify)) ~defects:map ~inputs
        ~outputs ~reference base.Pipeline.design
    in
    rep.Repair.outcome
  in
  let outcomes =
    Parallel.with_pool ~jobs (fun pool ->
        Parallel.map ~chunk:4 pool run_trial
          (List.init trials (fun i -> i + 1)))
  in
  List.iter
    (function
      | Repair.Repaired { strategy = Repair.Permutation; _ } ->
        incr permutation
      | Repair.Repaired { strategy = Repair.Spares; _ } -> incr spares
      | Repair.Repaired { strategy = Repair.Resynthesis; _ }
      | Repair.Repaired { strategy = Repair.Unconstrained; _ } ->
        incr unconstrained
      | Repair.Degraded _ -> incr degraded
      | Repair.Unplaceable _ -> incr unplaceable)
    outcomes;
  let repaired = !permutation + !spares + !unconstrained in
  Format.printf
    "@[<v>%d arrays of %dx%d at device fault rate %g (line rate %g):@,\
     repaired: %d (permutation %d, spares %d, faults masked %d)@,\
     degraded: %d, unplaceable: %d@,\
     yield with repair: %.1f%%@]@."
    trials rows cols rate line_rate repaired !permutation !spares
    !unconstrained !degraded !unplaceable
    (100. *. float_of_int repaired /. float_of_int (max 1 trials));
  Ok ()

let yield_run defects rate line_rate spare_rows spare_cols trials seed nl
    (options : Compact.Pipeline.options) =
  let base = Compact.Pipeline.synthesize ~options nl in
  Format.printf "%a@." Compact.Report.pp base.report;
  match defects with
  | Some defects -> yield_single base nl defects 256 seed
  | None ->
    yield_monte_carlo base nl rate line_rate spare_rows spare_cols trials
      seed options.jobs

let yield_cmd =
  let defects =
    Arg.(value & opt (some defects_conv) None
         & info [ "d"; "defects" ] ~docv:"FILE"
             ~doc:"Judge one concrete defect map (per-output survival, no \
                   repair) instead of the Monte-Carlo sweep.")
  in
  let rate =
    Arg.(value & opt probability 0.02
         & info [ "rate" ] ~docv:"P"
             ~doc:"Per-junction fault probability for random arrays.")
  in
  let line_rate =
    Arg.(value & opt probability 0.
         & info [ "line-rate" ] ~docv:"P"
             ~doc:"Per-line broken-wire probability for random arrays.")
  in
  let spare_rows =
    Arg.(value & opt non_negative_int 1
         & info [ "spare-rows" ] ~docv:"N"
             ~doc:"Spare wordlines added to the random arrays.")
  in
  let spare_cols =
    Arg.(value & opt non_negative_int 1
         & info [ "spare-cols" ] ~docv:"N" ~doc:"Spare bitlines.")
  in
  let trials =
    Arg.(value & opt int 100
         & info [ "trials" ] ~docv:"N" ~doc:"Random arrays to draw.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  pipeline_cmd "yield"
    ~doc:"Estimate repair yield over random faulty arrays, or judge one \
          defect map"
    Term.(
      const yield_run $ defects $ rate $ line_rate $ spare_rows $ spare_cols
      $ trials $ seed)

(* ------------------------------------------------------------------ *)
(* Variation-aware margin analysis and hardening *)

let spec_term =
  let sigma_on =
    Arg.(value & opt float Crossbar.Variation.default_spec.sigma_on
         & info [ "sigma-on" ] ~docv:"S"
             ~doc:"Lognormal spread (ln-space sigma) of the on-resistance.")
  in
  let sigma_off =
    Arg.(value & opt float Crossbar.Variation.default_spec.sigma_off
         & info [ "sigma-off" ] ~docv:"S"
             ~doc:"Lognormal spread of the off-resistance.")
  in
  let wire_r =
    Arg.(value & opt float 0.
         & info [ "wire-r" ] ~docv:"OHM"
             ~doc:"Nanowire resistance per segment between adjacent \
                   crossings; > 0 switches to the distributed wire model.")
  in
  let drift =
    Arg.(value & opt float 1.
         & info [ "drift" ] ~docv:"X"
             ~doc:"Deterministic multiplier on the on-resistance modelling \
                   state drift.")
  in
  let make sigma_on sigma_off wire_r drift =
    let s =
      { Crossbar.Variation.default_spec with sigma_on; sigma_off;
        drift_on = drift }
    in
    Crossbar.Variation.with_wire ~row:wire_r ~col:wire_r s
  in
  Term.(const make $ sigma_on $ sigma_off $ wire_r $ drift)

let seed_term =
  Arg.(value & opt int Crossbar.Rng.default_seed
       & info [ "seed" ] ~docv:"S" ~doc:"Random seed (deterministic).")

let margin_spec_term =
  Arg.(value & opt float 0.
       & info [ "margin-spec" ] ~docv:"M"
           ~doc:"Required worst-case read margin (v_in-normalised); 0 \
                 means merely functional.")

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Machine output: one JSON line per corner analysis plus \
                 one for the Monte-Carlo yield.")

let margin_run spec seed margin_spec mc_trials json nl
    (options : Compact.Pipeline.options) =
  let result = Compact.Pipeline.synthesize ~options nl in
  let inputs = nl.Logic.Netlist.inputs and outputs = nl.Logic.Netlist.outputs in
  let reference = Logic.Netlist.eval_point nl in
  let corners =
    Crossbar.Margin.corners ~seed ~spec result.design ~inputs ~reference
      ~outputs
  in
  let mc =
    if mc_trials <= 0 then None
    else
      Some
        (Crossbar.Margin.monte_carlo ~seed ~max_trials:mc_trials
           ~margin_spec ~jobs:options.jobs ~spec result.design ~inputs
           ~reference ~outputs)
  in
  if json then begin
    List.iter
      (fun (c, a) ->
         Format.printf "{\"corner\":\"%s\",\"analysis\":%s}@."
           (Crossbar.Variation.corner_name c)
           (Crossbar.Margin.json_of_analysis a))
      corners;
    Option.iter
      (fun m -> Format.printf "%s@." (Crossbar.Margin.json_of_mc m))
      mc
  end
  else begin
    Format.printf "%a@." Compact.Report.pp result.report;
    List.iter
      (fun (c, a) ->
         Format.printf "corner %-9s %a@."
           (Crossbar.Variation.corner_name c)
           Crossbar.Margin.pp_analysis a)
      corners;
    Format.printf "worst over corners: %+.4f@."
      (Crossbar.Margin.worst_over_corners corners);
    Option.iter (fun m -> Format.printf "%a@." Crossbar.Margin.pp_mc m) mc
  end;
  let worst = Crossbar.Margin.worst_over_corners corners in
  if worst < margin_spec then
    Error
      (`Msg
         (Printf.sprintf "worst corner margin %.4f misses the spec %.4f"
            worst margin_spec))
  else Ok ()

let margin_cmd =
  let mc_trials =
    Arg.(value & opt int 200
         & info [ "mc-trials" ] ~docv:"N"
             ~doc:"Monte-Carlo yield trial budget (0 disables).")
  in
  pipeline_cmd "margin"
    ~doc:"Read-margin corner analysis and Monte-Carlo functional yield \
          under device variation"
    Term.(
      const margin_run $ spec_term $ seed_term $ margin_spec_term $ mc_trials
      $ json_flag)

let harden_run spec seed margin_spec mc_trials grid nl
    (options : Compact.Pipeline.options) =
  let hopts =
    { Compact.Pipeline.default_harden_options with
      spec; seed; margin_spec; mc_trials; jobs = options.jobs }
  in
  let r = Compact.Pipeline.harden ~options ~hopts nl in
  Format.printf "%a@." Compact.Report.pp r.hardened_report;
  Format.printf "candidates (worst corner margin):@.";
  List.iter
    (fun (c : Compact.Pipeline.candidate) ->
       Format.printf "  %-30s %+.5f (typical %+.5f)%s@." c.cand_label
         c.cand_worst c.cand_typical
         (if c.cand_label = r.chosen.cand_label then "  <- chosen" else ""))
    r.candidates;
  Option.iter (fun m -> Format.printf "%a@." Crossbar.Margin.pp_mc m) r.mc;
  if grid then Format.printf "%a@." Crossbar.Design.pp r.chosen.cand_design;
  if r.meets_spec then Ok ()
  else begin
    List.iter
      (fun (o, m) ->
         Format.printf "  %-16s worst margin %+.4f misses spec %.4f@." o m
           margin_spec)
      r.failing_outputs;
    Error
      (`Msg
         (Printf.sprintf "%d output(s) miss the margin spec"
            (List.length r.failing_outputs)))
  end

let harden_cmd =
  let mc_trials =
    Arg.(value & opt int 64
         & info [ "mc-trials" ] ~docv:"N"
             ~doc:"Monte-Carlo yield budget on the chosen design (0 \
                   disables).")
  in
  pipeline_cmd "harden"
    ~doc:"Pick the synthesis variant and line placement maximising the \
          worst-case read margin"
    Term.(
      const harden_run $ spec_term $ seed_term $ margin_spec_term $ mc_trials
      $ print_grid)

(* ------------------------------------------------------------------ *)

let experiments_run quick targets () =
  let config =
    if quick then Harness.Experiments.quick_config
    else Harness.Experiments.default_config
  in
  (match targets with
   | [] -> Harness.Experiments.run_all config
   | runs -> List.iter (fun run -> run config) runs);
  Ok ()

let experiments_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Tight limits.") in
  let targets =
    Arg.(value & pos_all (named "experiment" Harness.Targets.all) []
         & info [] ~docv:"EXPERIMENT")
  in
  traced_cmd "experiments"
    ~doc:"Regenerate the paper's tables and figures"
    Term.(const experiments_run $ quick $ targets)

(* ------------------------------------------------------------------ *)
(* Profiling: synthesize once with tracing forced on and fold the
   span log into a per-phase time/allocation table. *)

(* One row per phase, indented by its span depth below [base] levels;
   shares are of [total] seconds. *)
let print_phases ~title ~total ~base rows =
  let mwords w = Printf.sprintf "%.2f" (w /. 1e6) in
  let row (r : Obs.Agg.row) =
    let depth =
      if r.r_path = "" then 0
      else List.length (String.split_on_char '/' r.r_path)
    in
    [ String.make (2 * (depth - base)) ' ' ^ r.r_name;
      string_of_int r.r_count;
      Printf.sprintf "%.4f" r.r_total;
      Harness.Table.fmt_pct (if total > 0. then r.r_total /. total else 0.);
      mwords r.r_minor_words;
      mwords r.r_major_words ]
  in
  Harness.Table.print ~title
    ~columns:
      [ "phase", Harness.Table.L; "calls", Harness.Table.R;
        "time(s)", Harness.Table.R; "share", Harness.Table.R;
        "minor Mw", Harness.Table.R; "major Mw", Harness.Table.R ]
    (List.map row rows)

let profile_run nl options =
  Obs.set_enabled true;
  Obs.reset ();
  let result = Compact.Pipeline.synthesize ~options nl in
  let snap = Obs.drain () in
  Obs.set_enabled false;
  Format.printf "%a@.@." Compact.Report.pp result.report;
  let phase_rows =
    List.filter
      (fun (r : Obs.Agg.row) ->
         r.r_path = "synthesize"
         || String.starts_with ~prefix:"synthesize/" r.r_path)
      (Obs.Agg.phases snap)
  in
  let total = result.report.Compact.Report.synthesis_time in
  print_phases ~title:(Printf.sprintf "profile: %s" result.report.circuit)
    ~total ~base:1 phase_rows;
  (* The top-level stages partition the synthesize span, so their sum
     should track the report's synthesis time (small residual: report
     construction and inter-stage glue). *)
  let stage_sum =
    List.fold_left
      (fun acc (r : Obs.Agg.row) ->
         if r.r_path = "synthesize" then acc +. r.r_total else acc)
      0. phase_rows
  in
  Format.printf "stage coverage: %.4fs of %.4fs synthesis time (%s)@."
    stage_sum total
    (Harness.Table.fmt_pct (if total > 0. then stage_sum /. total else 0.));
  if snap.Obs.counters <> [] then begin
    let counter_rows =
      List.map
        (fun (name, v) ->
           [ name;
             (if Float.is_integer v then Printf.sprintf "%.0f" v
              else Printf.sprintf "%g" v) ])
        snap.Obs.counters
    in
    Format.printf "@.";
    Harness.Table.print ~title:"counters"
      ~columns:[ "metric", Harness.Table.L; "value", Harness.Table.R ]
      counter_rows
  end;
  Ok ()

(* Replay mode: aggregate an existing JSONL trace (typically a
   flight-recorder dump) into the same per-phase table, no synthesis. *)
let profile_from_run file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error (`Msg msg)
  | contents ->
    (match Obs.Export.parse_jsonl contents with
     | exception Obs.Json.Parse_error msg ->
       Error (`Msg (file ^ ": invalid JSONL trace: " ^ msg))
     | snap ->
       let rows = Obs.Agg.phases snap in
       let total =
         List.fold_left
           (fun acc (r : Obs.Agg.row) ->
              if r.r_path = "" then acc +. r.r_total else acc)
           0. rows
       in
       print_phases
         ~title:(Printf.sprintf "profile: %s (replayed)"
                   (Filename.basename file))
         ~total ~base:0 rows;
       Format.printf "%d events, %d distinct phases@."
         (List.length snap.Obs.events) (List.length rows);
       Ok ())

let profile_cmd =
  let from =
    Arg.(value & opt (some file) None
         & info [ "from" ] ~docv:"FILE"
             ~doc:"Aggregate an existing JSONL trace (e.g. a \
                   flight-recorder dump) instead of synthesising.")
  in
  let run from source options =
    match from, source with
    | Some file, None -> profile_from_run file
    | None, Some nl -> guarded (fun () -> profile_run nl options)
    | Some _, Some _ ->
      Error (`Msg "--from conflicts with an input source")
    | None, None ->
      Error (`Msg "give an input source or --from FILE")
  in
  cmd "profile"
    ~doc:"Synthesise with tracing on and print a per-phase time and \
          allocation breakdown (or replay one with --from)"
    Term.(const run $ from $ source_opt_term $ options_term)

(* ------------------------------------------------------------------ *)
(* Trace validation: parse a file written by --trace and optionally
   check the Fig-3 stage spans are present. *)

let stage_span_names = [ "bdd-build"; "preprocess"; "labeling"; "mapping" ]

let trace_check_run file expect_stages =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error (`Msg msg)
  | contents ->
    let spans = ref [] and events = ref 0 in
    let record ~kind ~name =
      incr events;
      if kind = "span" then spans := name :: !spans
    in
    (match
       let trimmed = String.trim contents in
       if (not (Filename.check_suffix file ".jsonl"))
          && String.length trimmed > 0 && trimmed.[0] = '{'
       then
         (* Chrome trace_event: names live on the "X" complete events. *)
         match Obs.Json.member "traceEvents" (Obs.Json.parse contents) with
         | Some (Obs.Json.Arr evs) ->
           List.iter
             (fun ev ->
                match
                  Obs.Json.member "ph" ev, Obs.Json.member "name" ev
                with
                | Some (Obs.Json.Str "X"), Some (Obs.Json.Str n) ->
                  record ~kind:"span" ~name:n
                | Some (Obs.Json.Str _), _ -> record ~kind:"other" ~name:""
                | _ -> ())
             evs
         | _ -> raise (Obs.Json.Parse_error "missing traceEvents array")
       else
         List.iter
           (fun line ->
              if String.trim line <> "" then
                let j = Obs.Json.parse line in
                match
                  Obs.Json.member "kind" j, Obs.Json.member "name" j
                with
                | Some (Obs.Json.Str k), Some (Obs.Json.Str n) ->
                  record ~kind:k ~name:n
                | _ ->
                  raise (Obs.Json.Parse_error "event without kind/name"))
           (String.split_on_char '\n' contents)
     with
     | () ->
       Format.printf "%s: valid trace, %d events (%d spans)@." file !events
         (List.length !spans);
       if not expect_stages then Ok ()
       else begin
         match
           List.filter (fun s -> not (List.mem s !spans)) stage_span_names
         with
         | [] ->
           Format.printf "synthesis stage spans present: %s@."
             (String.concat ", " stage_span_names);
           Ok ()
         | missing ->
           Error (`Msg ("missing stage spans: " ^ String.concat ", " missing))
       end
     | exception Obs.Json.Parse_error msg ->
       Error (`Msg (file ^ ": invalid trace: " ^ msg)))

let trace_check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Trace file written by --trace.")
  in
  let expect_stages =
    Arg.(value & flag
         & info [ "expect-stages" ]
             ~doc:"Fail unless the Fig-3 synthesis stage spans (bdd-build, \
                   preprocess, labeling, mapping) all appear.")
  in
  cmd "trace-check" ~doc:"Parse a --trace output file and verify its structure"
    Term.(const trace_check_run $ file_arg $ expect_stages)

(* ------------------------------------------------------------------ *)
(* compactd: synthesis-as-a-service over a Unix-domain socket. *)

let socket_term =
  Arg.(required
       & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~env:(Cmd.Env.info "COMPACT_SOCKET"
                   ~doc:"Default socket path when $(b,--socket) is absent.")
           ~doc:"Unix-domain socket path of the compactd server.")

let serve_run (options : Compact.Pipeline.options) socket max_queue
    request_deadline batch_window cache_entries cache_bytes cache_dir fsync
    journal_ratio drain_deadline read_deadline max_pending metrics_file
    metrics_interval flight_file =
  let engine =
    {
      Server.Engine.defaults = options;
      jobs = options.jobs;
      max_queue;
      request_deadline;
      verify_trials = Server.Engine.default_config.Server.Engine.verify_trials;
      cache_entries;
      cache_bytes;
      cache_dir;
      fsync;
      journal_ratio;
    }
  in
  (* The flight recorder is always armed; "none" opts out of writing
     its dump file. *)
  let flight_path =
    match flight_file with
    | Some "none" -> None
    | Some f -> Some f
    | None -> Some (socket ^ ".flight.jsonl")
  in
  let config =
    { (Server.Sock.default_config ~socket_path:socket) with engine;
      batch_window; drain_deadline; read_deadline; max_pending;
      handle_signals = true; flight_path; metrics_path = metrics_file;
      metrics_interval }
  in
  Printf.eprintf "compactd: serving on %s (jobs=%d%s%s)\n%!" socket
    options.jobs
    (match cache_dir with
     | None -> ""
     | Some d -> Printf.sprintf ", cache-dir=%s" d)
    (match flight_path with
     | None -> ""
     | Some f -> Printf.sprintf ", flight-file=%s" f);
  match Server.Sock.serve config with
  | stats ->
    Printf.eprintf
      "compactd: shut down after %d requests (%d solves, %d cache hits, %d \
       recovered)\n%!"
      stats.Server.Engine.served stats.Server.Engine.solves
      stats.Server.Engine.cache.Server.Cache.hits
      stats.Server.Engine.recovered;
    Ok ()
  | exception Server.Sock.Busy msg -> Error (`Msg msg)

let serve_cmd =
  let max_queue =
    Arg.(value & opt int 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admission control: synth requests beyond $(docv) in one \
                   batch are rejected with an overload error.")
  in
  let request_deadline =
    Arg.(value & opt float 30.
         & info [ "request-deadline" ] ~docv:"SEC"
             ~doc:"Per-request budget covering parse, BDD build, solve and \
                   verify.")
  in
  let batch_window =
    Arg.(value & opt float 0.02
         & info [ "batch-window" ] ~docv:"SEC"
             ~doc:"How long the server waits for more requests before \
                   flushing a batch to the domain pool.")
  in
  let cache_entries =
    Arg.(value & opt int 512
         & info [ "cache-entries" ] ~docv:"N"
             ~doc:"Design cache capacity in entries (LRU beyond this).")
  in
  let cache_bytes =
    Arg.(value & opt int (16 * 1024 * 1024)
         & info [ "cache-bytes" ] ~docv:"B"
             ~doc:"Design cache capacity in payload bytes.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~env:(Cmd.Env.info "COMPACT_CACHE_DIR"
                     ~doc:"Default cache directory when $(b,--cache-dir) \
                           is absent.")
             ~doc:"Persist the design cache in $(docv) (checksummed \
                   snapshot + append-only journal). On restart the cache \
                   is recovered — torn or corrupt tails are truncated and \
                   damaged entries dropped, never served. Omit for a \
                   memory-only cache.")
  in
  let fsync =
    Arg.(value & flag
         & info [ "fsync" ]
             ~doc:"fsync the journal after every append (survives power \
                   loss, not just process crash; slower hit path).")
  in
  let journal_ratio =
    Arg.(value & opt float 4.
         & info [ "journal-ratio" ] ~docv:"R"
             ~doc:"Compact the journal into a fresh snapshot once it \
                   outgrows $(docv) times the snapshot size.")
  in
  let drain_deadline =
    Arg.(value & opt float 5.
         & info [ "drain-deadline" ] ~docv:"SEC"
             ~doc:"On SIGTERM/SIGINT, how long in-flight requests may \
                   keep finishing before the rest are shed with \
                   retry-after and the server exits.")
  in
  let read_deadline =
    Arg.(value & opt float 10.
         & info [ "read-deadline" ] ~docv:"SEC"
             ~doc:"Close a connection that sits on a half-sent request \
                   line longer than $(docv) seconds (slowloris guard).")
  in
  let max_pending =
    Arg.(value & opt int 256
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Queued request lines beyond $(docv) are shed with a \
                   structured retry-after error.")
  in
  let metrics_file =
    Arg.(value & opt (some string) None
         & info [ "metrics-file" ] ~docv:"FILE"
             ~doc:"Atomically rewrite a Prometheus text-exposition \
                   snapshot of every registered metric to $(docv) every \
                   $(b,--metrics-interval) seconds (and once at exit).")
  in
  let metrics_interval =
    Arg.(value & opt float 5.
         & info [ "metrics-interval" ] ~docv:"SEC"
             ~doc:"Seconds between $(b,--metrics-file) snapshots.")
  in
  let flight_file =
    Arg.(value & opt (some string) None
         & info [ "flight-file" ] ~docv:"FILE"
             ~doc:"Where the flight-recorder ring is dumped (JSONL) on \
                   SIGUSR1, on graceful drain, and on a fatal engine \
                   error. Defaults to SOCKET.flight.jsonl; pass \
                   $(b,none) to disable the dump file.")
  in
  cmd "serve" ~doc:"Run compactd: a JSONL synthesis server with a design cache"
    Term.(
      const serve_run $ options_term $ socket_term $ max_queue
      $ request_deadline $ batch_window $ cache_entries $ cache_bytes
      $ cache_dir $ fsync $ journal_ratio $ drain_deadline $ read_deadline
      $ max_pending $ metrics_file $ metrics_interval $ flight_file)

(* A session with compactd: a socket it cannot reach, or a transport
   failure the client's retries did not absorb, is reported naming the
   socket instead of escaping. *)
let reaching socket k =
  match k () with
  | r -> r
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (`Msg
         (Printf.sprintf "cannot reach compactd at %s: %s" socket
            (Unix.error_message err)))

let client_run socket expr lines =
  let lines =
    List.mapi
      (fun i e ->
         Obs.Json.to_string
           (Obs.Json.Obj
              [
                "op", Obs.Json.Str "synth";
                "id", Obs.Json.Num (float_of_int (i + 1));
                "expr", Obs.Json.Str e;
              ]))
      expr
    @ lines
  in
  if lines = [] then Error (`Msg "give -e EXPR or raw JSONL request lines")
  else
    reaching socket @@ fun () ->
    let client = Server.Client.connect socket in
    List.iter
      (fun line -> print_endline (Server.Client.request_idempotent client line))
      lines;
    Server.Client.close client;
    Ok ()

let client_cmd =
  let expr =
    Arg.(value & opt_all string []
         & info [ "e"; "expr" ] ~docv:"EXPR"
             ~doc:"Synthesise $(docv) (repeatable; wrapped in a synth \
                   request).")
  in
  let lines =
    Arg.(value & pos_all string []
         & info [] ~docv:"LINE"
             ~doc:"Raw JSONL request lines sent verbatim (e.g. \
                   '{\"op\":\"stats\"}').")
  in
  cmd "client" ~doc:"Send requests to a running compactd server"
    Term.(const client_run $ socket_term $ expr $ lines)

(* One metrics (or health) round trip: connect, ask, render. Prometheus
   rendering happens client-side from the JSON reply — the wire stays
   one-line JSONL either way. *)
let metrics_fetch socket ~health ~prometheus =
  reaching socket @@ fun () ->
  let client = Server.Client.connect socket in
  let op = if health then "health" else "metrics" in
  let line =
    Obs.Json.to_string
      (Obs.Json.Obj [ "op", Obs.Json.Str op; "id", Obs.Json.Str "cli" ])
  in
  let reply = Server.Client.request_idempotent client line in
  Server.Client.close client;
  match Obs.Json.parse reply with
  | exception Obs.Json.Parse_error msg ->
    Error (`Msg (Printf.sprintf "malformed %s reply: %s" op msg))
  | j ->
    (match Obs.Json.member "ok" j with
     | Some (Obs.Json.Bool true) ->
       if prometheus && not health then
         match Obs.Metrics.of_json j with
         | Some view -> Ok (Obs.Metrics.prometheus view)
         | None -> Error (`Msg ("metrics reply missing sections: " ^ reply))
       else Ok reply
     | _ -> Error (`Msg (Printf.sprintf "server refused %s: %s" op reply)))

let metrics_run socket health prometheus watch =
  let with_newline s = if String.ends_with ~suffix:"\n" s then s else s ^ "\n" in
  match watch with
  | None ->
    Result.map
      (fun s -> print_string (with_newline s))
      (metrics_fetch socket ~health ~prometheus)
  | Some interval ->
    (* Watch mode keeps polling through transient failures (a
       restarting server) and only stops on ctrl-C. *)
    let rec loop () =
      (match metrics_fetch socket ~health ~prometheus with
       | Ok s ->
         print_string (with_newline s);
         flush stdout
       | Error (`Msg m) -> Printf.eprintf "metrics: %s\n%!" m);
      Unix.sleepf interval;
      loop ()
    in
    loop ()

let metrics_cmd =
  let health =
    Arg.(value & flag
         & info [ "health" ]
             ~doc:"Ask for the $(b,health) summary (uptime, drain state, \
                   in-flight count, cache recovery) instead of the full \
                   metrics snapshot.")
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Render the snapshot as Prometheus text exposition \
                   instead of raw JSON.")
  in
  let watch =
    Arg.(value & opt (some positive_seconds) None
         & info [ "watch" ] ~docv:"SEC"
             ~doc:"Keep polling every $(docv) seconds until interrupted.")
  in
  cmd "metrics"
    ~doc:"Fetch the live metrics (or health) snapshot from a running \
          compactd server"
    Term.(const metrics_run $ socket_term $ health $ prometheus $ watch)

let loadgen_run socket requests hot_frac seed out no_retry =
  reaching socket @@ fun () ->
  let result =
    Server.Loadgen.run ~seed ~requests ~hot_frac ~retry:(not no_retry)
      ~socket ()
  in
  Format.printf "%a@." Server.Loadgen.pp result;
  (match out with
   | None -> ()
   | Some file ->
     let doc = Server.Loadgen.json_of_result ~seed ~hot:4 ~hot_frac result in
     let oc = open_out file in
     output_string oc doc;
     output_char oc '\n';
     close_out oc;
     Printf.eprintf "loadgen: wrote %s\n%!" file);
  Ok ()

let loadgen_cmd =
  let requests =
    Arg.(value & opt int 200
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Requests to issue.")
  in
  let hot_frac =
    Arg.(value & opt float 0.4
         & info [ "hot-frac" ] ~docv:"F"
             ~doc:"Fraction of requests drawn from the fixed hot set \
                   (repeat traffic).")
  in
  let seed =
    Arg.(value & opt int Crossbar.Rng.default_seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the benchmark document (BENCH_pr7.json shape) to \
                   $(docv).")
  in
  let no_retry =
    Arg.(value & flag
         & info [ "no-retry" ]
             ~doc:"Disable idempotent replay: a dropped connection or shed \
                   request fails instead of being retried.")
  in
  cmd "loadgen"
    ~doc:"Drive a seeded mixed workload against compactd and report \
          throughput, latency and cache behaviour"
    Term.(
      const loadgen_run $ socket_term $ requests $ hot_frac $ seed $ out
      $ no_retry)

(* ------------------------------------------------------------------ *)

let () =
  (* COMPACT_INJECT arms the deterministic fault-injection points for
     chaos runs; a malformed value must not silently run un-armed. *)
  (match Resilience.Inject.configure_from_env () with
   | Ok () -> ()
   | Error msg ->
     Printf.eprintf "compact: %s\n%!" msg;
     exit 2);
  let doc =
    "COMPACT: flow-based computing on nanoscale crossbars with minimal \
     semiperimeter"
  in
  let info = Cmd.info "compact" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ synth_cmd; sweep_cmd; validate_cmd; repair_cmd; yield_cmd;
            margin_cmd; harden_cmd; profile_cmd; trace_check_cmd; suite_cmd;
            export_cmd; experiments_cmd; serve_cmd; client_cmd;
            metrics_cmd; loadgen_cmd ]))
