(* Measurement kernels that perfbench (BENCHMARK.json) does not cover
   yet.  Each holds a budget or a comparison and writes one JSON
   document: the kernel's fields plus a [host] block.

   Usage:
     main.exe [--json FILE] KERNEL...

   KERNEL is restart-recovery (BENCH_pr8.json), metrics-overhead
   (BENCH_pr10.json) or sift (BENCH_pr9.json).  --json FILE writes the
   document there instead.  The paper's tables and figures come from
   [compact_cli experiments]. *)

module J = Obs.Json

let int n = J.Num (float_of_int n)

(* Three decimals, the precision every BENCH document is written at. *)
let fixed x = J.Num (Float.round (x *. 1e3) /. 1e3)

(* Write [fields] plus a [host] block (the cores the runtime sees, the
   OCaml version and the jobs count the kernel ran at) as one JSON
   object: one top-level field per line, one array item per line. *)
let write_doc ?json ~default ~jobs fields =
  let file = Option.value json ~default in
  let host =
    J.Obj
      [ "cores", int (Domain.recommended_domain_count ());
        "ocaml", J.Str Sys.ocaml_version;
        "jobs", int jobs ]
  in
  let value = function
    | J.Arr items ->
      Printf.sprintf "[\n    %s\n  ]"
        (String.concat ",\n    " (List.map J.to_string items))
    | v -> J.to_string v
  in
  let field (k, v) =
    Printf.sprintf "  %s: %s" (J.to_string (J.Str k)) (value v)
  in
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n" (List.map field (fields @ [ "host", host ]))));
  Printf.printf "results written to %s\n%!" file

(* [f ()] and its wall time in seconds on the monotonic clock. *)
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

let hit_line = {|{"op":"synth","id":1,"expr":"(a & b) | (c & ~d)"}|}

let handle e = ignore (Server.Engine.handle e hit_line : string)

(* ------------------------------------------------------------------ *)
(* Restart/recovery costs for the durable design cache:

   - recovery wall time against cache size, for both recovery paths —
     replaying a journal and loading a snapshot — over synthetic
     entries sized like real synth payloads (~1 KiB);
   - hit-path overhead of running the engine with a cache-dir versus
     purely in memory.  Hits never touch the journal, so the measured
     overhead should sit well inside the 5% budget. *)

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
         let (p2, rec1), journal_s =
           wall (fun () -> Server.Persist.open_dir dir)
         in
         assert (List.length rec1.Server.Persist.entries = n);
         (* Snapshot path: compact, then recover again. *)
         Server.Persist.snapshot p2 rec1.Server.Persist.entries;
         let snapshot_bytes = Server.Persist.snapshot_bytes p2 in
         Server.Persist.close p2;
         let (p3, rec2), snapshot_s =
           wall (fun () -> Server.Persist.open_dir dir)
         in
         assert (List.length rec2.Server.Persist.entries = n);
         Server.Persist.close p3;
         Printf.printf
           "recovery n=%-5d journal %7.2f ms (%7d B)   snapshot %7.2f ms \
            (%7d B)\n%!"
           n (journal_s *. 1e3) journal_bytes (snapshot_s *. 1e3)
           snapshot_bytes;
         J.Obj
           [ "entries", int n;
             "journal_ms", fixed (journal_s *. 1e3);
             "journal_bytes", int journal_bytes;
             "snapshot_ms", fixed (snapshot_s *. 1e3);
             "snapshot_bytes", int snapshot_bytes ])
      [ 16; 64; 256; 1024 ]
  in
  clean ();
  (* Hit-path overhead: identical hit streams against an in-memory
     engine and a durable one. *)
  let hits = 2000 in
  let hit_stream config =
    let e = Server.Engine.create config in
    handle e;
    (* warm the path before timing *)
    for _ = 1 to 100 do
      handle e
    done;
    (* Level the heap: the in-memory engine just ran a cold solve, the
       durable one may have recovered instead; without a compaction the
       difference in floating garbage reads as persistence overhead. *)
    Gc.compact ();
    let (), s =
      wall (fun () ->
          for _ = 1 to hits do
            handle e
          done)
    in
    Server.Engine.close e;
    s *. 1e6 /. float_of_int hits (* us per hit *)
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
  (try Sys.rmdir dir with Sys_error _ -> ());
  let overhead_pct = (persist_us -. mem_us) /. mem_us *. 100. in
  Printf.printf
    "hit path: %.2f us/hit in memory, %.2f us/hit durable (%+.2f%%)\n%!"
    mem_us persist_us overhead_pct;
  write_doc ?json ~default:"BENCH_pr8.json"
    ~jobs:Server.Engine.default_config.jobs
    [ "bench", J.Str "restart-recovery";
      "payload_bytes", int 1000;
      "recovery", J.Arr recovery_rows;
      "hit_path",
      J.Obj
        [ "hits", int hits;
          "mem_us_per_hit", fixed mem_us;
          "persist_us_per_hit", fixed persist_us;
          "overhead_pct", fixed overhead_pct;
          "budget_pct", fixed 5. ] ]

(* ------------------------------------------------------------------ *)
(* The telemetry plane's hit-path cost.

   The serve loop arms the metrics registry and the flight recorder for
   its whole lifetime, so the question that matters is what an armed
   telemetry plane costs on the cheapest request the server handles —
   the cache hit, where there is no solve to hide behind.  Same
   discipline as the persistence kernel: identical hit streams with
   telemetry off and on, alternated, best block each, so scheduler noise
   does not masquerade as recorder overhead.  Budget: the same <=5%
   hit-path envelope as persistence. *)

let run_metrics_overhead ?json () =
  Resilience.Inject.disable ();
  let block = 200 and rounds = 50 in
  let hits = block * rounds in
  (* One shared engine, telemetry toggled around short interleaved
     blocks: frequency drift over a multi-second run then lands on both
     configurations equally, where back-to-back whole streams let a
     thermal ramp masquerade as telemetry overhead. *)
  let config = Server.Engine.default_config in
  let e = Server.Engine.create config in
  handle e;
  for _ = 1 to 100 do
    handle e
  done;
  let arm on =
    Obs.set_metrics_enabled on;
    Obs.Recorder.set_enabled on
  in
  (* One armed warmup block so the flight ring's one-time allocation
     is not billed to the first timed block. *)
  arm true;
  for _ = 1 to block do
    handle e
  done;
  arm false;
  Gc.compact ();
  let timed_block () =
    let (), s =
      wall (fun () ->
          for _ = 1 to block do
            handle e
          done)
    in
    s *. 1e6 /. float_of_int block
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
  write_doc ?json ~default:"BENCH_pr10.json" ~jobs:config.jobs
    [ "bench", J.Str "metrics-overhead";
      "hits", int hits;
      "off_us_per_hit", fixed off_us;
      "on_us_per_hit", fixed on_us;
      "overhead_pct", fixed overhead_pct;
      "budget_pct", fixed 5. ]

(* ------------------------------------------------------------------ *)
(* In-place sifting (bdd/sift-mult8): the variable-order step on the
   8-bit multiplier.  Build under the best static candidate order, then
   sift in place by adjacent level exchanges inside the packed manager;
   the timing leaves out the candidate search itself. *)

let run_sift_bench ?json () =
  Resilience.Inject.disable ();
  let mult = Circuits.Arith.multiplier ~bits:8 () in
  let order, initial_size = Bdd.Sbdd.best_order mult in
  let (sift_size, sift_swaps, sift_passes), w_sift =
    best_of 3 (fun () ->
        let sbdd = Bdd.Sbdd.improve ~order mult in
        let stats = Bdd.Sbdd.stats sbdd in
        ( Bdd.Sbdd.size sbdd,
          stats.Bdd.Manager.level_swaps,
          stats.Bdd.Manager.sift_passes ))
  in
  Printf.printf
    "bdd/sift-mult8: static %d nodes; sift -> %d nodes in %.1f ms (%d \
     swaps, %d passes)\n\
     %!"
    initial_size sift_size (w_sift *. 1e3) sift_swaps sift_passes;
  write_doc ?json ~default:"BENCH_pr9.json" ~jobs:1
    [ "bench", J.Str "sift";
      "sift",
      J.Obj
        [ "circuit", J.Str "mult8";
          "static_nodes", int initial_size;
          "sift_nodes", int sift_size;
          "sift_ms", fixed (w_sift *. 1e3);
          "level_swaps", int sift_swaps;
          "sift_passes", int sift_passes ] ]

(* ------------------------------------------------------------------ *)

let kernels =
  [ "restart-recovery", run_restart_recovery;
    "metrics-overhead", run_metrics_overhead;
    "sift", run_sift_bench ]

let usage () =
  Printf.eprintf "usage: main.exe [--json FILE] (%s)...\n"
    (String.concat "|" (List.map fst kernels));
  exit 1

let () =
  let json = ref None in
  let rec parse = function
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | name :: rest ->
      (match List.assoc_opt name kernels with
       | Some kernel -> kernel :: parse rest
       | None -> usage ())
    | [] -> []
  in
  match parse (List.tl (Array.to_list Sys.argv)) with
  | [] -> usage ()
  | runs -> List.iter (fun kernel -> kernel ?json:!json ()) runs
