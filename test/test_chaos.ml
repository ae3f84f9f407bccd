(* Chaos battery: arm each deterministic fault-injection point over
   several seeds and drive the pipeline end-to-end.  The contract under
   test is the resilience layer's only promise: every run ends in a
   verified design or a structured error — never an uncaught exception,
   never a wedged pool, never a silently-wrong result.

   Run via the @chaos alias, which executes this binary at
   COMPACT_JOBS=1 and COMPACT_JOBS=4 so both the sequential and the
   pooled fault surfaces are swept. *)

let check = Alcotest.check
let tb = Alcotest.bool

module Budget = Resilience.Budget
module Inject = Resilience.Inject

let jobs = Parallel.default_jobs ()
let seeds = [ 1; 11; 23 ]

let netlist_of_expr name s =
  let e = Logic.Parse.expr s in
  let inputs = Logic.Expr.vars e in
  Logic.Netlist.create ~name ~inputs ~outputs:[ "f" ]
    [ Logic.Netlist.n_expr "f" e ]

let small_nl = netlist_of_expr "chaos" "((a & b) | (c & ~d)) ^ (b & ~c)"

(* The allowlist: every exception a faulted run may end in.  Anything
   else — Out_of_memory escaping raw, Invalid_argument from a
   half-parsed map, a Stdlib.Failure out of a solver — is a bug. *)
let structured = function
  | Budget.Exhausted _ -> true
  | Compact.Label_mip.Infeasible _ -> true
  | Bdd.Manager.Size_limit _ -> true
  | Crossbar.Defect_map.Parse_error _ -> true
  | Crossbar.Analog.No_convergence _ -> true
  | _ -> false

let run_scenario label f =
  match f () with
  | () -> ()
  | exception e when structured e -> ()
  | exception e ->
    Alcotest.failf "%s: unstructured exception %s" label
      (Printexc.to_string e)

let verify_design nl (r : Compact.Pipeline.result) =
  check tb "produced design verifies" true
    (Crossbar.Verify.auto ~trials:128 r.Compact.Pipeline.design
       ~inputs:nl.Logic.Netlist.inputs
       ~reference:(Logic.Netlist.eval_point nl)
       ~outputs:nl.Logic.Netlist.outputs
     = Crossbar.Verify.Ok)

let options =
  { Compact.Pipeline.default_options with time_limit = 0.5; jobs }

(* A clean design to probe the analog solver with; built once, outside
   any injection window. *)
let clean_design =
  lazy (Compact.Pipeline.synthesize ~options small_nl).Compact.Pipeline.design

let synth_scenario () =
  verify_design small_nl (Compact.Pipeline.synthesize ~options small_nl)

let analog_scenario () =
  ignore
    (Crossbar.Analog.solve (Lazy.force clean_design) (fun v ->
         Hashtbl.hash v land 1 = 0))

let harden_scenario () =
  let hopts =
    { Compact.Pipeline.default_harden_options with mc_trials = 4; jobs }
  in
  let r = Compact.Pipeline.harden ~options ~hopts small_nl in
  verify_design small_nl r.Compact.Pipeline.base

let defect_scenario () =
  let m =
    Crossbar.Defect_map.create ~rows:8 ~cols:7 ~spare_rows:1 ~spare_cols:1
      ~broken_rows:[ 3 ]
      [ Crossbar.Fault.Stuck_on (0, 1); Crossbar.Fault.Stuck_off (4, 2) ]
  in
  (* Truncation strikes inside of_string; any cut must parse or fail
     structurally, and the parsed remainder must stay well-formed. *)
  for _ = 1 to 8 do
    let m' = Crossbar.Defect_map.of_string (Crossbar.Defect_map.to_string m) in
    ignore (Crossbar.Defect_map.faults m')
  done

(* Disk faults strike the persist layer (PR-8): journal appends and
   snapshot writes may be bit-flipped or cut short by the injection
   points.  The contract: the store never raises, and recovery surfaces
   only entries whose bytes are exactly what was written — damage is
   dropped and counted, never served. *)
let persist_dir_counter = ref 0

let fresh_persist_dir () =
  incr persist_dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "compact-chaos-persist-%d-%d" (Unix.getpid ())
         !persist_dir_counter)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
         try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  dir

let persist_scenario () =
  let module P = Server.Persist in
  let dir = fresh_persist_dir () in
  let value i tag =
    Printf.sprintf "{\"design\":\"%s-%02d-%s\"}" tag i
      (String.make 32 (Char.chr (Char.code 'a' + (i mod 26))))
  in
  let written =
    List.init 8 (fun i -> Printf.sprintf "key-%02d" i, value i "snap")
  in
  let tail =
    List.init 8 (fun i -> Printf.sprintf "tail-%02d" i, value i "jrnl")
  in
  (* Writes run with the disk points armed: some records land damaged. *)
  let p, _ = P.open_dir dir in
  List.iter (fun (k, v) -> P.append p k v) written;
  P.snapshot p written;
  List.iter (fun (k, v) -> P.append p k v) tail;
  P.close p;
  (* Whatever recovery admits must be byte-identical to something that
     was written: a single flipped bit fails the record CRC, a cut
     record breaks the framing — either way the entry drops. *)
  let p2, r = P.open_dir dir in
  P.close p2;
  let expected = written @ tail in
  List.iter
    (fun (k, v) ->
       match List.assoc_opt k expected with
       | Some v' when String.equal v v' -> ()
       | _ -> Alcotest.failf "recovery surfaced a damaged entry %S" k)
    r.P.entries

let scenario_for = function
  | Inject.Timeout -> "synthesize", synth_scenario
  | Inject.Oom -> "synthesize", synth_scenario
  | Inject.Cg_divergence -> "analog-solve", analog_scenario
  | Inject.Pool_poison -> "harden", harden_scenario
  | Inject.Defect_truncate -> "defect-roundtrip", defect_scenario
  | Inject.Disk_torn_write -> "persist-roundtrip", persist_scenario
  | Inject.Disk_corrupt -> "persist-roundtrip", persist_scenario

let point_tests =
  List.concat_map
    (fun point ->
       List.map
         (fun seed ->
            let what, f = scenario_for point in
            let label =
              Printf.sprintf "%s seed=%d (%s, jobs=%d)" (Inject.name point)
                seed what jobs
            in
            Alcotest.test_case label `Quick (fun () ->
                Inject.with_points ~seed [ point ] (fun () ->
                    run_scenario label f)))
         seeds)
    Inject.all

(* Everything armed at once: the pipeline must still settle into a
   verified design or one structured error per run. *)
let all_armed_tests =
  List.map
    (fun seed ->
       let label = Printf.sprintf "all points, seed=%d, jobs=%d" seed jobs in
       Alcotest.test_case label `Quick (fun () ->
           Inject.with_points ~seed Inject.all (fun () ->
               run_scenario label synth_scenario;
               run_scenario label harden_scenario;
               run_scenario label defect_scenario;
               run_scenario label persist_scenario)))
    seeds

(* ------------------------------------------------------------------ *)

(* The global deadline's graceful-degradation contract, with no
   injection armed: a deadline too small for the primary rungs still
   yields a verified design whose shape is independent of the jobs
   count, with the degradation visible in the report. *)

let deadline_tests =
  [
    Alcotest.test_case "expired deadline degrades to a verified design"
      `Slow (fun () ->
          Inject.disable ();
          let e = Circuits.Suite.find "dec" in
          let nl = e.Circuits.Suite.generate () in
          let run jobs =
            let options =
              { Compact.Pipeline.default_options with
                deadline = Some 1e-4; jobs }
            in
            Compact.Pipeline.synthesize ~options nl
          in
          let r1 = run 1 in
          let report = r1.Compact.Pipeline.report in
          check tb "deadline_hit set" true
            report.Compact.Report.deadline_hit;
          check Alcotest.string "landed on the terminal rung" "oct-greedy"
            (List.nth report.solver_path (List.length report.solver_path - 1));
          check tb "degraded design verifies" true
            (Crossbar.Verify.auto ~trials:256 r1.Compact.Pipeline.design
               ~inputs:nl.Logic.Netlist.inputs
               ~reference:(Logic.Netlist.eval_point nl)
               ~outputs:nl.Logic.Netlist.outputs
             = Crossbar.Verify.Ok);
          (* Determinism across jobs counts: same degraded design, same
             solver path, byte for byte. *)
          let r4 = run 4 in
          check Alcotest.string "identical design at jobs=4"
            (Format.asprintf "%a" Crossbar.Design.pp
               r1.Compact.Pipeline.design)
            (Format.asprintf "%a" Crossbar.Design.pp
               r4.Compact.Pipeline.design);
          check (Alcotest.list Alcotest.string) "identical solver path"
            report.solver_path
            r4.Compact.Pipeline.report.Compact.Report.solver_path;
          check tb "jobs=4 also reports the deadline" true
            r4.Compact.Pipeline.report.Compact.Report.deadline_hit);
    Alcotest.test_case "no deadline leaves deadline_hit clear" `Quick
      (fun () ->
         Inject.disable ();
         let r = Compact.Pipeline.synthesize ~options small_nl in
         check tb "clear" false
           r.Compact.Pipeline.report.Compact.Report.deadline_hit);
  ]

(* Injected faults must be visible in the PR-5 trace: each hit records
   an [inject] event and bumps the per-point counter. *)
let trace_tests =
  [
    Alcotest.test_case "injected faults land in the trace" `Quick (fun () ->
        let saved = Obs.enabled () in
        Obs.set_enabled true;
        Obs.reset ();
        Inject.with_points ~seed:1 [ Inject.Timeout ] (fun () ->
            run_scenario "traced synthesize" synth_scenario);
        let snap = Obs.drain () in
        Obs.set_enabled saved;
        let hits =
          List.filter (fun e -> e.Obs.ev_name = "inject") snap.Obs.events
        in
        check tb "inject events recorded" true (hits <> []);
        match List.assoc_opt "inject.timeout" snap.Obs.counters with
        | Some n when n >= 1. -> ()
        | Some n -> Alcotest.failf "inject.timeout counter %g" n
        | None -> Alcotest.fail "inject.timeout counter missing");
  ]

(* PR-7 server point: faults injected while compactd serves a request
   must surface as structured error responses (or clean successes when
   the fault misses / the sequential retry absorbs it) — never a cache
   entry produced under injection, never a wedged engine.  After the
   storm, the same request must solve cleanly and byte-match a
   reference engine that never saw a fault. *)
let server_tests =
  let module Engine = Server.Engine in
  let module J = Obs.Json in
  let ti = Alcotest.int in
  let line = {|{"op":"synth","id":1,"expr":"((a & b) | (c & ~d)) ^ (b & ~c)"}|} in
  let response_structured resp =
    match J.parse resp with
    | exception J.Parse_error msg ->
      Alcotest.failf "unparsable response %s: %s" resp msg
    | j ->
      (match J.member "ok" j with
       | Some (J.Bool true) -> ()
       | Some (J.Bool false) ->
         (match J.member "error" j with
          | Some err ->
            (match J.member "code" err, J.member "message" err with
             | Some (J.Str _), Some (J.Str _) -> ()
             | _ -> Alcotest.failf "malformed error object in %s" resp)
          | None -> Alcotest.failf "ok:false without error in %s" resp)
       | _ -> Alcotest.failf "response without ok field: %s" resp)
  in
  let storm point =
    Alcotest.test_case
      (Printf.sprintf "%s during in-flight requests" (Inject.name point))
      `Slow
      (fun () ->
         let e = Engine.create { Engine.default_config with Engine.jobs } in
         List.iter
           (fun seed ->
              Inject.with_points ~seed [ point ] (fun () ->
                  List.iter response_structured
                    (Engine.handle_batch e [ line; line; line ])))
           seeds;
         (* Nothing produced under injection may have entered the
            cache: every insert requires the pristine verdict, which is
            false while any point is armed. *)
         check ti "cache uncorrupted: no inserts under injection" 0
           (Engine.stats e).Engine.cache.Server.Cache.inserts;
         (* The engine is not wedged: the identical request now solves
            cleanly and matches an engine that never saw a fault. *)
         Inject.disable ();
         let after = Engine.handle e line in
         let reference =
           Engine.handle (Engine.create Engine.default_config) line
         in
         (match J.member "ok" (J.parse after) with
          | Some (J.Bool true) -> ()
          | _ -> Alcotest.failf "clean request after storm failed: %s" after);
         check Alcotest.string "clean solve matches a fault-free engine"
           reference after)
  in
  [ storm Inject.Timeout; storm Inject.Pool_poison; storm Inject.Oom ]

(* SIGUSR1 must produce a readable flight dump even while a fault storm
   is chewing through the serving loop: the recorder is exactly for
   diagnosing a misbehaving server, so it is tested under misbehaviour.
   Runs a real [Sock.serve] (signal handlers installed) in a companion
   domain, drives faulted traffic, then kills itself with USR1. *)
let flight_tests =
  let module J = Obs.Json in
  let module Client = Server.Client in
  let line = {|{"op":"synth","id":1,"expr":"((a & b) | (c & ~d)) ^ (b & ~c)"}|} in
  [
    Alcotest.test_case "SIGUSR1 dumps a valid flight file mid-storm" `Slow
      (fun () ->
         let tmp = Filename.get_temp_dir_name () in
         let path =
           Filename.concat tmp
             (Printf.sprintf "chaos-usr1-%d.sock" (Unix.getpid ()))
         in
         let flight = path ^ ".flight.jsonl" in
         List.iter
           (fun f -> try Sys.remove f with Sys_error _ -> ())
           [ path; flight ];
         let config =
           { (Server.Sock.default_config ~socket_path:path) with
             Server.Sock.engine =
               { Server.Engine.default_config with Server.Engine.jobs };
             handle_signals = true;
             flight_path = Some flight }
         in
         let server =
           Domain.spawn (fun () ->
               ignore (Server.Sock.serve config : Server.Engine.stats))
         in
         Fun.protect
           ~finally:(fun () ->
             Domain.join server;
             List.iter
               (fun f -> try Sys.remove f with Sys_error _ -> ())
               [ path; flight ])
           (fun () ->
              (* Wait for the socket (and with it the signal handlers)
                 to come up. *)
              let deadline = Unix.gettimeofday () +. 10. in
              let rec wait () =
                match Client.connect path with
                | c -> c
                | exception Unix.Unix_error _ ->
                  if Unix.gettimeofday () > deadline then
                    Alcotest.fail "server did not come up"
                  else begin
                    Unix.sleepf 0.05;
                    wait ()
                  end
              in
              let client = wait () in
              (* Faulted traffic, then the signal while the engine is
                 still warm. *)
              Inject.with_points ~seed:11 [ Inject.Timeout ] (fun () ->
                  ignore (Client.request_idempotent client line : string);
                  ignore (Client.request_idempotent client line : string));
              ignore (Client.request_idempotent client line : string);
              Unix.kill (Unix.getpid ()) Sys.sigusr1;
              (* The serving loop notices the flag on its next select
                 tick; poll for the dump. *)
              let rec poll d =
                if Sys.file_exists flight then ()
                else if Unix.gettimeofday () > d then
                  Alcotest.fail "no flight dump after SIGUSR1"
                else begin
                  Unix.sleepf 0.05;
                  poll d
                end
              in
              poll (Unix.gettimeofday () +. 10.);
              let ic = open_in flight in
              let n = in_channel_length ic in
              let body = really_input_string ic n in
              close_in ic;
              let lines =
                List.filter
                  (fun l -> l <> "")
                  (String.split_on_char '\n' body)
              in
              check tb "dump has events" true (lines <> []);
              List.iter
                (fun l ->
                   let j = J.parse l in
                   match J.member "kind" j, J.member "name" j with
                   | Some (J.Str _), Some (J.Str _) -> ()
                   | _ -> Alcotest.failf "malformed flight line: %s" l)
                lines;
              (* Drain the server; reuses the graceful-shutdown path,
                 which rewrites the dump. *)
              ignore
                (Client.request client {|{"op":"shutdown","id":"x"}|}
                 : string);
              Client.close client))
  ]

let () =
  Alcotest.run "chaos"
    [
      "points", point_tests;
      "all-armed", all_armed_tests;
      "deadline", deadline_tests;
      "trace", trace_tests;
      "server", server_tests;
      "flight", flight_tests;
    ]
