(* The COMPACT benchmark: three seeded workloads, their end-to-end
   metrics, and a traced replay that attributes each workload's time to
   the layers it passes through.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--requests N]

   W is one of

   - table1-synth: the Table-I synthesis flow in process, circuit by
     circuit (netlist -> Pipeline.synthesize -> Verify.auto ->
     Protocol.synth_payload);
   - serve-mix: loadgen's traffic against compactd over its Unix socket
     (one closed-loop client; a fixed round of 100 requests, 40% of
     them from a hot set of 4, the rest depth-4 expressions over 8
     variables);
   - serve-hot: the same server with a warmed hot set, then a closed
     loop of cache hits only.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 the run measures the same traffic, replays it through
   the public functions of every layer with spans recorded from this
   file, prints the attribution table and reports the per-layer metrics.
   The process exits 1 when any correctness check fails and 2 on a usage
   error.  perfbench/README.md describes every metric.

     main.exe --serve SOCKET CACHE_DIR

   runs one compactd server until it is told to shut down; the serve
   workloads start their servers this way, as child processes. *)

module J = Obs.Json
module P = Compact.Pipeline
module Budget = Resilience.Budget
module Protocol = Server.Protocol

let now = Obs.Clock.now

(* ------------------------------------------------------------------ *)
(* Command line *)

let workloads = [ "table1-synth"; "serve-mix"; "serve-hot" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  requests : int option;
      (** serve-mix only: one round of loadgen's own stream, this many
          requests, instead of the benchmark's rounds *)
}

let usage =
  "usage: main.exe --workload (table1-synth|serve-mix|serve-hot) --seed N \
   --seconds S --trace (0|1) [--requests N]"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and requests = ref None in
  let int_arg v =
    match int_of_string_opt v with Some n -> n | None -> die ("not an integer: " ^ v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg v);
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0. -> seconds := Some s
       | _ -> die ("--seconds needs a positive number, got " ^ v));
      go rest
    | "--trace" :: v :: rest ->
      (match v with
       | "0" -> trace := Some false
       | "1" -> trace := Some true
       | _ -> die ("--trace takes 0 or 1, got " ^ v));
      go rest
    | "--requests" :: v :: rest ->
      let n = int_arg v in
      if n < 1 then die "--requests must be at least 1";
      requests := Some n;
      go rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some seed, Some seconds, Some trace ->
    if not (List.mem w workloads) then die ("unknown workload " ^ w);
    if !requests <> None && w <> "serve-mix" then
      die "--requests applies to serve-mix only";
    { workload = w; seed; seconds; trace; requests = !requests }
  | _ -> die "--workload, --seed, --seconds and --trace are required"

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping: [attempted]/[failed] count operations (one
   circuit, one request); [broken] records a check that is not tied to a
   single operation (server counters, replay byte-identity). *)

let attempted = ref 0
let failed = ref 0
let broken = ref false
let problems = ref []

let note msg =
  if List.length !problems < 20 then problems := msg :: !problems

let op_done errs =
  incr attempted;
  if errs <> [] then begin
    incr failed;
    List.iter note errs
  end

let check_global ok msg =
  if not ok then begin
    broken := true;
    note msg
  end

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

(* ------------------------------------------------------------------ *)
(* Statistics and output *)

let median xs = Obs.Hist.percentile_exact (Array.of_list xs) 50

(* ln Gamma(x) for x > 0, Lanczos approximation. *)
let log_gamma x =
  let coef =
    [| 76.18009172947146; -86.50532032941677; 24.01409824083091;
       -1.231739572450155; 0.1208650973866179e-2; -0.5395239384953e-5 |]
  in
  let t = x +. 5.5 in
  let t = t -. ((x +. 0.5) *. log t) in
  let ser = ref 1.000000000190015 and y = ref x in
  Array.iter (fun c -> y := !y +. 1.; ser := !ser +. (c /. !y)) coef;
  -.t +. log (2.5066282746310005 *. !ser /. x)

(* Continued fraction of the incomplete beta function (modified Lentz). *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let nz v = if Float.abs v < tiny then tiny else v in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. and d = ref (1. /. nz (1. -. (qab *. x /. qap))) in
  let h = ref !d in
  let step aa =
    d := 1. /. nz (1. +. (aa *. !d));
    c := nz (1. +. (aa /. !c));
    h := !h *. !d *. !c;
    !d *. !c
  in
  let rec go m =
    let mf = float_of_int m in
    let m2 = 2. *. mf in
    ignore (step (mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2))) : float);
    let del =
      step (-.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)))
    in
    if Float.abs (del -. 1.) > 3e-14 && m < 10_000 then go (m + 1)
  in
  go 1;
  !h

(* The regularized incomplete beta function I_x(a, b). *)
let beta_inc a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_cf a b x /. a
    else 1. -. (front *. beta_cf b a (1. -. x) /. b)

(* Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean of
   every order statistic.  Where samples are sparse, as at serve-mix's
   p90 between single slow requests, a nearest-rank percentile jumps
   from one sample to the next as noise reorders them; this estimate
   moves smoothly. *)
let hd_percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n <= 1 then (if n = 0 then nan else a.(0))
  else
    let nf = float_of_int n and q = p /. 100. in
    let alpha = q *. (nf +. 1.) and beta = (1. -. q) *. (nf +. 1.) in
    let acc = ref 0. and prev = ref 0. in
    Array.iteri
      (fun i x ->
         let cur = beta_inc alpha beta (float_of_int (i + 1) /. nf) in
         acc := !acc +. ((cur -. !prev) *. x);
         prev := cur)
      a;
    !acc

let time f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

(* ------------------------------------------------------------------ *)
(* Host speed.  The 2-core reference host's speed moves by up to 3x
   within minutes and by a third within seconds, with no CPU steal (CPU
   time tracks wall time).  A run therefore times a fixed probe between
   its operations and reports every timing at reference speed: the raw
   time multiplied by [probe_ref], the probe's time on the quiet host,
   over the probe times measured around it.

   The probe is stdlib-only work that shares no code with the program:
   a pointer chase around one random cycle through a 4 MiB array (a
   chain of dependent cache misses, like a hash-table walk),
   multiplicative hashing with scattered writes into a 2 MiB table, and
   float multiply-adds over 800 KB.  Its buffers are allocated once,
   below, and the probe allocates nothing, so its time follows the host,
   not the size of the program's heap or when the collector runs. *)

let probe_ref = 0.010

type probe_buffers = { chain : int array; table : int array; floats : float array }

(* Built by the first probe, before its clock starts; a server child
   process never builds them. *)
let probe_buffers =
  lazy
    (let n = 1 lsl 19 in
     let chain = Array.init n Fun.id in
     (* Sattolo's shuffle: a single cycle through every slot. *)
     let st = Random.State.make [| 17 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = chain.(i) in
       chain.(i) <- chain.(j);
       chain.(j) <- t
     done;
     {
       chain;
       table = Array.make (1 lsl 18) 0;
       floats = Array.init 100_000 (fun i -> float_of_int (i land 1023));
     })

let probe_acc = [| 0. |]

(* The run's probe times, newest first, and how many there are. *)
let host_probes = ref []
let n_probes = ref 0

let host_probe () =
  let { chain; table; floats } = Lazy.force probe_buffers in
  let t0 = now () in
  let k = ref 0 in
  for _ = 1 to 70_000 do
    k := chain.(!k)
  done;
  let h = ref !k in
  for i = 1 to 140_000 do
    h := (!h lxor i) * 0x100000001b3;
    let j = (!h lsr 20) land (Array.length table - 1) in
    table.(j) <- table.(j) + i
  done;
  for r = 1 to 3 do
    for i = 0 to Array.length floats - 1 do
      probe_acc.(0) <- probe_acc.(0) +. (floats.(i) *. float_of_int (i + r))
    done
  done;
  let d = now () -. t0 in
  host_probes := d :: !host_probes;
  incr n_probes

let last_probe () = !n_probes - 1
let probe_array () = Array.of_list (List.rev !host_probes)

(* A raw time and the index of the probe taken just before it; the next
   probe, [at + 1], is always taken after it. *)
type timed = { dt : float; at : int }

(* The factor that takes a time measured between probes [i] and [i + 1]
   of [p] to reference speed: [probe_ref] over the median of the six
   probes nearest it.  Over five seeds per workload this gave spreads as
   low as or lower than scaling by the two adjacent probes (one probe
   can be off by a third) or by the run's median probe (the host drifts
   within a run). *)
let factor p i =
  let n = Array.length p in
  let lo = max 0 (i - 2) and hi = min (n - 1) (i + 3) in
  probe_ref /. median (Array.to_list (Array.sub p lo (hi - lo + 1)))

let at_ref p t = t.dt *. factor p t.at

(* Set up [n] times, probing before the first and after each; every
   result but the last is released with [discard].  Returns the last
   result and the repetitions' times. *)
let repeat_setup ?(discard = ignore) n f =
  let rec go k acc =
    let at = last_probe () in
    let r, dt = time (fun () -> f k) in
    host_probe ();
    let acc = { dt; at } :: acc in
    if k = n then r, acc
    else begin
      discard r;
      go (k + 1) acc
    end
  in
  host_probe ();
  go 1 []

(* Set-up time at reference speed: the median repetition. *)
let setup_at_ref p reps = median (List.map (at_ref p) reps)

(* How long a stretch of operations runs between two probes. *)
let probe_period = 0.25

(* Run [op k] for k = 0, 1, ... until it returns None, timing each call.
   A probe runs before the first call, after any call that ends
   [probe_period] or more after the previous probe, and after the last.
   Returns each call's result and time, and the stretches between
   probes (their sum is the loop's time without the probes). *)
let probed_loop op =
  let out = ref [] and stretches = ref [] in
  host_probe ();
  let start = ref (now ()) in
  let close t =
    stretches := { dt = t -. !start; at = last_probe () } :: !stretches;
    host_probe ();
    start := now ()
  in
  let rec go k =
    let t0 = now () in
    match op k with
    | None -> close (now ())
    | Some r ->
      let t1 = now () in
      out := (r, { dt = t1 -. t0; at = last_probe () }) :: !out;
      if t1 -. !start >= probe_period then close t1;
      go (k + 1)
  in
  go 0;
  Array.of_list (List.rev !out), !stretches

(* How many whole passes or rounds a run makes: as many as [seconds]
   holds at [nominal] seconds each on the 2-core reference host, at
   least one.  The work per run is fixed by [seconds] alone, so runs on
   a fast and a slow commit measure the same work. *)
let whole_units seconds ~nominal =
  max 1 (Float.to_int (Float.round (seconds /. nominal)))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let printf = Printf.printf

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

(* The paper's quality columns, summed over a workload's distinct
   designs: deterministic counts, so any change is a real one. *)
let quality_metrics (s, d, vh) =
  [
    metric "semiperimeter_total" "count" (float_of_int s);
    metric "max_dimension_total" "count" (float_of_int d);
    metric "vh_total" "count" (float_of_int vh);
  ]

let num f = Printf.sprintf "%.17g" f

(* The last stdout line: exactly correct/attempted/failed/metrics. A
   metric that came out non-finite is a failed check, not a number. *)
let finish metrics =
  List.iter
    (fun m ->
       check_global (Float.is_finite m.m_value)
         (Printf.sprintf "metric %s is not a finite number" m.m_name))
    metrics;
  let correct = !failed = 0 && not !broken in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p))
    (List.rev !problems);
  let fields =
    List.map
      (fun m ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
           (J.to_string (J.Str m.m_name))
           (if Float.is_finite m.m_value then num m.m_value else "null")
           (J.to_string (J.Str m.m_unit)))
      metrics
  in
  printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct !attempted !failed (String.concat "," fields);
  exit (if correct then 0 else 1)

(* The machine-readable details behind the human report (quality
   totals, determinism counts, each workload's own metric names), one line,
   for perfbench/run.py's sweep and compare modes. *)
let detail ~args fields =
  printf "perfbench-detail %s\n"
    (J.to_string
       (J.Obj
          ([
             "workload", J.Str args.workload;
             "seed", J.Num (float_of_int args.seed);
             "trace", J.Bool args.trace;
             ( "host",
               J.Obj
                 [
                   "cores", J.Num (float_of_int (Domain.recommended_domain_count ()));
                   "ocaml", J.Str Sys.ocaml_version;
                   "jobs", J.Num 1.;
                 ] );
             "probe_ms", J.Num (1e3 *. median !host_probes);
           ]
          @ fields)))

(* ------------------------------------------------------------------ *)
(* Scratch files: the socket and cache directories live under one
   directory in the working directory, removed at exit. *)

let run_dir = Printf.sprintf ".perfbench-tmp-%d" (Unix.getpid ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Server processes started and not yet reaped. *)
let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  snd (Unix.waitpid [] pid)

let kill_children () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (reap pid : Unix.process_status))
    !children

let scratch name =
  if not (Sys.file_exists run_dir) then begin
    Unix.mkdir run_dir 0o700;
    at_exit (fun () ->
        kill_children ();
        try rm_rf run_dir with Unix.Unix_error _ -> ())
  end;
  Filename.concat run_dir name

(* ------------------------------------------------------------------ *)
(* Traced replay: spans recorded around the calls into each layer,
   folded with Obs.Agg.phases into per-(path, name) totals, then reduced
   to self time per layer. *)

module Trace = struct
  let rows : (string * string, int * float) Hashtbl.t = Hashtbl.create 64
  let counters : (string, float) Hashtbl.t = Hashtbl.create 16

  let add tbl k f d =
    Hashtbl.replace tbl k (f (Option.value (Hashtbl.find_opt tbl k) ~default:d))

  (* Drain the span buffers into the running totals; called every few
     hundred operations so a long replay holds few events in memory. *)
  let fold () =
    let snap = Obs.drain () in
    List.iter
      (fun (r : Obs.Agg.row) ->
         add rows (r.Obs.Agg.r_path, r.Obs.Agg.r_name)
           (fun (c, t) -> c + r.Obs.Agg.r_count, t +. r.Obs.Agg.r_total)
           (0, 0.))
      (Obs.Agg.phases snap);
    List.iter
      (fun (n, v) -> add counters n (fun x -> x +. v) 0.)
      snap.Obs.counters

  let start () =
    Obs.reset ();
    Obs.set_enabled true

  let stop () =
    fold ();
    Obs.set_enabled false

  let counter n = Option.value (Hashtbl.find_opt counters n) ~default:0.

  (* Benchmark-side span names and the library's own stage spans, by
     layer.  A span with no layer of its own belongs to its nearest
     enclosing span that has one. *)
  let layer_of_span = function
    | "protocol.parse" -> Some "protocol.parse"
    | "logic.netlist" -> Some "logic.netlist"
    | "bdd.build" | "bdd-build" -> Some "bdd.build"
    | "server.fingerprint" -> Some "server.fingerprint"
    | "server.cache_probe" -> Some "server.cache_probe"
    | "preprocess" -> Some "core.preprocess"
    | "rung:mip" -> Some "core.label_mip"
    | "labeling" -> Some "core.label"
    | "mapping" -> Some "core.mapping"
    | "core.synthesize" | "synthesize" -> Some "core.pipeline"
    | "crossbar.verify" -> Some "crossbar.verify"
    | "protocol.serialize" -> Some "protocol.serialize"
    | "server.cache_add" -> Some "server.cache_add"
    | "persist.append" -> Some "persist.append"
    | _ -> None

  let layers =
    [
      "protocol.parse"; "logic.netlist"; "bdd.build"; "server.fingerprint";
      "server.cache_probe"; "core.preprocess"; "core.label_mip"; "core.label";
      "core.mapping"; "core.pipeline"; "crossbar.verify"; "protocol.serialize";
      "server.cache_add"; "persist.append";
    ]

  let layer_of path name =
    let segs =
      name :: (if path = "" then [] else List.rev (String.split_on_char '/' path))
    in
    List.find_map layer_of_span segs

  (* (layer -> self seconds, spans named for the layer), plus the total
     time inside top-level spans. *)
  let attribution () =
    let child_total = Hashtbl.create 64 in
    Hashtbl.iter (fun (path, _) (_, t) -> add child_total path (( +. ) t) 0.) rows;
    let self = Hashtbl.create 16 and count = Hashtbl.create 16 in
    let top = ref 0. in
    Hashtbl.iter
      (fun (path, name) (c, t) ->
         let me = if path = "" then name else path ^ "/" ^ name in
         let kids = Option.value (Hashtbl.find_opt child_total me) ~default:0. in
         if path = "" then top := !top +. t;
         match layer_of path name with
         | None -> ()
         | Some l ->
           add self l (( +. ) (t -. kids)) 0.;
           if layer_of_span name = Some l then add count l (( + ) c) 0)
      rows;
    let get tbl l d = Option.value (Hashtbl.find_opt tbl l) ~default:d in
    List.map (fun l -> l, get self l 0., get count l 0) layers, !top
end

(* Inputs to the per-layer report besides the span totals. *)
type replay = {
  ops : int;
  replay_wall : float;  (** seconds inside replayed operations, traced *)
  replay_timed : timed list;  (** each serve replay operation, newest first *)
  transport : float;
      (** seconds of client latency beyond in-process handling *)
  bdd_peak_nodes : float;  (** summed over diagrams built *)
  bdd_cache_hits : float;
  bdd_cache_lookups : float;
  verifies : int;
  vectors : float;  (** summed over verifications *)
  probes : int;
  probe_hits : int;
  response_bytes : float;
  journal_bytes : float;
}

let empty_replay =
  {
    ops = 0; replay_wall = 0.; replay_timed = []; transport = 0.;
    bdd_peak_nodes = 0.; bdd_cache_hits = 0.; bdd_cache_lookups = 0.;
    verifies = 0; vectors = 0.; probes = 0; probe_hits = 0;
    response_bytes = 0.; journal_bytes = 0.;
  }

let add_bdd_stats r (s : Bdd.Manager.stats) =
  {
    r with
    bdd_peak_nodes = r.bdd_peak_nodes +. float_of_int s.Bdd.Manager.peak_nodes;
    bdd_cache_hits = r.bdd_cache_hits +. float_of_int s.Bdd.Manager.cache_hits;
    bdd_cache_lookups =
      r.bdd_cache_lookups +. float_of_int s.Bdd.Manager.cache_lookups;
  }

let verify_trials = Server.Engine.default_config.Server.Engine.verify_trials

let vectors_of inputs =
  let n = List.length inputs in
  if n <= Crossbar.Verify.exhaustive_threshold then 1 lsl n else verify_trials

let add_verify r inputs =
  { r with verifies = r.verifies + 1;
           vectors = r.vectors +. float_of_int (vectors_of inputs) }

(* Print the attribution table and return the per-layer metrics.
   [overhead] is the (traced, untraced) time of the same operations,
   measured at the same host speed. *)
let per_layer ~workload ~overhead:(traced, untraced) r =
  let rows, top = Trace.attribution () in
  let wall = r.replay_wall +. r.transport in
  let attributed =
    List.fold_left (fun acc (_, s, _) -> acc +. s) r.transport rows
  in
  let unattributed = wall -. attributed in
  let coverage = if wall > 0. then attributed /. wall else nan in
  let share s = if wall > 0. then 100. *. s /. wall else nan in
  printf "attribution %s: %d ops, wall %.3f s (traced replay %.3f s + \
          transport %.3f s; %.3f s inside top-level spans)\n"
    workload r.ops wall r.replay_wall r.transport top;
  printf "  %-20s %12s %8s %9s\n" "layer" "self_ms" "share" "spans";
  List.iter
    (fun (l, s, c) ->
       printf "  %-20s %12.3f %7.2f%% %9d\n" l (s *. 1e3) (share s) c)
    rows;
  printf "  %-20s %12.3f %7.2f%% %9d\n" "transport" (r.transport *. 1e3)
    (share r.transport) r.ops;
  printf "  %-20s %12.3f %7.2f%%\n" "unattributed" (unattributed *. 1e3)
    (share unattributed);
  printf "  coverage %.2f%% (bar: 95%%)\n" (100. *. coverage);
  let overhead = if untraced > 0. then (traced -. untraced) /. untraced else nan in
  printf "  tracing overhead: traced %.3f s vs untraced %.3f s (%+.2f%%)\n"
    traced untraced (100. *. overhead);
  if coverage < 0.95 then
    printf "  warning: attribution covers less than 95%% of the wall time\n";
  let self l =
    List.fold_left (fun acc (l', s, _) -> if l = l' then acc +. s else acc) 0. rows
  in
  let ops = float_of_int (max 1 r.ops) in
  let per_op_us s = s *. 1e6 /. ops in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    metric "logic.netlist_us" "us" (per_op_us (self "logic.netlist"));
    metric "bdd.build_us" "us" (per_op_us (self "bdd.build"));
    metric "core.preprocess_us" "us" (per_op_us (self "core.preprocess"));
    metric "core.label_us" "us"
      (per_op_us (self "core.label" +. self "core.label_mip"));
    metric "core.label_mip_us" "us" (per_op_us (self "core.label_mip"));
    metric "core.mapping_us" "us" (per_op_us (self "core.mapping"));
    metric "crossbar.verify_us" "us" (per_op_us (self "crossbar.verify"));
    metric "protocol.serialize_us" "us" (per_op_us (self "protocol.serialize"));
    metric "bdd.nodes" "count" (r.bdd_peak_nodes /. ops);
    metric "bdd.ite_cache_hit_ratio" "ratio"
      (ratio r.bdd_cache_hits r.bdd_cache_lookups);
    metric "milp.bb_nodes" "count" (Trace.counter "bb.nodes" /. ops);
    metric "vc.nodes" "count" (Trace.counter "vc.nodes" /. ops);
    metric "heuristic.rounds" "count" (Trace.counter "heuristic.rounds" /. ops);
    metric "label.budget_bound" "count" (Trace.counter "budget.exhausted");
    metric "verify.vectors" "count"
      (ratio r.vectors (float_of_int r.verifies));
    metric "cache.hit_ratio" "ratio"
      (ratio (float_of_int r.probe_hits) (float_of_int r.probes));
    metric "protocol.response_bytes" "bytes" (r.response_bytes /. ops);
    metric "persist.journal_bytes" "bytes" r.journal_bytes;
    metric "attribution.coverage" "ratio" coverage;
    metric "tracing.overhead" "ratio" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* table1-synth *)

(* The 13 Table-I circuits whose labeling finishes on its own.  c432,
   c880, c3540 and int2float stop on the labeling timer instead, so
   their wall time would measure the time limit, not the work. *)
let table1_names =
  [
    "c499"; "c1355"; "c1908"; "c2670"; "c5315"; "c7552"; "arbiter"; "cavlc";
    "ctrl"; "dec"; "i2c"; "priority"; "router";
  ]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let table1_flow (nl : Logic.Netlist.t) =
  let result = Obs.Span.with_ "core.synthesize" (fun () -> P.synthesize nl) in
  let verdict =
    Obs.Span.with_ "crossbar.verify" (fun () ->
        Crossbar.Verify.auto ~trials:verify_trials result.P.design
          ~inputs:nl.Logic.Netlist.inputs
          ~reference:(Logic.Netlist.eval_point nl)
          ~outputs:nl.Logic.Netlist.outputs)
  in
  let payload =
    Obs.Span.with_ "protocol.serialize" (fun () ->
        Protocol.synth_payload ~key:nl.Logic.Netlist.name
          ~design:result.P.design ~report:result.P.report)
  in
  result.P.report, verdict, payload

type t1_seen = { report : Compact.Report.t; payload : string; ms : float }

let table1 args =
  let entries = List.map Circuits.Suite.find table1_names in
  let generate () =
    List.map (fun e -> e.Circuits.Suite.name, e.Circuits.Suite.generate ()) entries
  in
  let netlists, setup_reps = repeat_setup 41 (fun _ -> generate ()) in
  let order =
    shuffle (Crossbar.Rng.state args.seed "perfbench-table1-order")
      (Array.of_list netlists)
  in
  let n = Array.length order in
  (* [f] on every circuit of [order], one after another, with probes. *)
  let pass f = probed_loop (fun k -> if k < n then Some (f order.(k)) else None) in
  let seen : (string, t1_seen) Hashtbl.t = Hashtbl.create 16 in
  (* Per pass, every circuit's time. *)
  let passes = ref [] in
  let run_pass () =
    let results, _ = pass (fun (_, nl) -> table1_flow nl) in
    Array.iteri
      (fun i ((report, verdict, payload), t) ->
         let name = fst order.(i) in
         let errs = ref [] in
         let err fmt = Printf.ksprintf (fun m -> errs := (name ^ ": " ^ m) :: !errs) fmt in
         (match verdict with
          | Crossbar.Verify.Ok -> ()
          | Crossbar.Verify.Failed _ -> err "design fails Verify.auto");
         if List.length report.Compact.Report.solver_path <> 1 then
           err "solver path %s has more than one rung" (Compact.Report.rungs report);
         if report.Compact.Report.deadline_hit then err "labeling hit its budget";
         (match Hashtbl.find_opt seen name with
          | None -> Hashtbl.replace seen name { report; payload; ms = t.dt *. 1e3 }
          | Some s -> if s.payload <> payload then err "payload differs between passes");
         op_done (List.rev !errs))
      results;
    passes := Array.map snd results :: !passes
  in
  for _ = 1 to whole_units args.seconds ~nominal:30. do run_pass () done;
  let passes = List.rev !passes in
  let sum_of f ts = Array.fold_left (fun acc t -> acc +. f t) 0. ts in
  let synth_wall_s = median (List.map (sum_of (fun t -> t.dt)) passes) in
  (* The latency samples are every circuit of every pass, at reference
     speed.  Over 13 circuits the Harrell-Davis p90 weighs the slowest
     four (arbiter, c1908, c1355, c499) about 0.48, 0.32, 0.14 and 0.05,
     so one slow circuit's host noise is diluted: the slowest circuit
     alone spread 0.18 over ten runs. *)
  let metrics () =
    let p = probe_array () in
    let circuit_s =
      List.concat_map (fun ts -> Array.to_list (Array.map (at_ref p) ts)) passes
    in
    [
      metric "latency_p50_ms" "ms" (1e3 *. hd_percentile circuit_s 50.);
      metric "latency_tail_ms" "ms" (1e3 *. hd_percentile circuit_s 90.);
      metric "throughput_ops_s" "1/s"
        (float_of_int (List.length circuit_s) /. List.fold_left ( +. ) 0. circuit_s);
      metric "setup_s" "s" (setup_at_ref p setup_reps);
    ]
  in
  let total f = Hashtbl.fold (fun _ s acc -> acc + f s.report) seen 0 in
  let s_total = total (fun r -> r.Compact.Report.semiperimeter) in
  let d_total = total (fun r -> r.Compact.Report.max_dimension) in
  let vh_total = total (fun r -> r.Compact.Report.vh_count) in
  printf "table1-synth: %d circuits x %d pass(es), seed %d\n" n
    (List.length passes) args.seed;
  printf "  %-9s %7s %7s %7s %6s %-10s %10s\n" "circuit" "nodes" "S" "D" "VH"
    "solver" "first_ms";
  List.iter
    (fun name ->
       let s = Hashtbl.find seen name in
       let r = s.report in
       printf "  %-9s %7d %7d %7d %6d %-10s %10.1f\n" name r.Compact.Report.bdd_nodes
         r.Compact.Report.semiperimeter r.Compact.Report.max_dimension
         r.Compact.Report.vh_count (Compact.Report.rungs r) s.ms)
    table1_names;
  printf "  synth_wall_s %.4f s  semiperimeter_total %d  max_dimension_total %d  \
          vh_total %d\n"
    synth_wall_s s_total d_total vh_total;
  let heap = peak_heap_mb () in
  printf "  error_rate %.4f  peak_heap_mb %.1f MB  host probe %.2f ms median over %d\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) heap
    (1e3 *. median !host_probes) !n_probes;
  let quality =
    J.Obj
      (List.map
         (fun name ->
            let r = (Hashtbl.find seen name).report in
            ( name,
              J.Arr
                [
                  J.Num (float_of_int r.Compact.Report.semiperimeter);
                  J.Num (float_of_int r.Compact.Report.max_dimension);
                  J.Num (float_of_int r.Compact.Report.vh_count);
                ] ))
         table1_names)
  in
  detail ~args
    [
      "synth_wall_s", J.Num synth_wall_s;
      "semiperimeter_total", J.Num (float_of_int s_total);
      "max_dimension_total", J.Num (float_of_int d_total);
      "vh_total", J.Num (float_of_int vh_total);
      "per_circuit_s_d_vh", quality;
      "peak_heap_mb", J.Num heap;
      "error_rate", J.Num (float_of_int !failed /. float_of_int (max 1 !attempted));
    ];
  if not args.trace then
    finish (metrics () @ quality_metrics (s_total, d_total, vh_total))
  else begin
    (* Traced replay: regenerate each netlist and run the flow again
       under spans; the payload must be byte-identical to the measured
       pass's.  The measured pass ran up to a minute earlier, so the
       tracing overhead compares times at reference speed: the replay
       against that pass plus an untraced generation pass made just
       before the replay. *)
    let gen, _ =
      pass (fun (name, _) -> (Circuits.Suite.find name).Circuits.Suite.generate ())
    in
    Trace.start ();
    let replay, _ =
      pass (fun (name, _) ->
          let entry = Circuits.Suite.find name in
          let nl = Obs.Span.with_ "logic.netlist" entry.Circuits.Suite.generate in
          let report, _, payload = table1_flow nl in
          report, payload, nl.Logic.Netlist.inputs)
    in
    Trace.stop ();
    let r = ref empty_replay in
    Array.iteri
      (fun i ((report, payload, inputs), t) ->
         let name = fst order.(i) in
         check_global
           (payload = (Hashtbl.find seen name).payload)
           (name ^ ": traced replay payload differs from the measured one");
         let acc =
           match report.Compact.Report.bdd_stats with
           | Some s -> add_bdd_stats !r s
           | None -> !r
         in
         let acc = add_verify acc inputs in
         r :=
           {
             acc with
             ops = acc.ops + 1;
             replay_wall = acc.replay_wall +. t.dt;
             response_bytes = acc.response_bytes +. float_of_int (String.length payload);
           })
      replay;
    let p = probe_array () in
    let timed_sum results = sum_of (fun (_, t) -> at_ref p t) results in
    let untraced = timed_sum gen +. sum_of (at_ref p) (List.hd passes) in
    finish
      (per_layer ~workload:args.workload ~overhead:(timed_sum replay, untraced) !r)
  end

(* ------------------------------------------------------------------ *)
(* compactd traffic *)

let vars = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

(* Loadgen's expression generator, draw for draw: a full binary tree of
   the given depth over 8 variables. *)
let rec gen_expr st depth =
  if depth = 0 then
    (if Random.State.bool st then "~" else "")
    ^ vars.(Random.State.int st (Array.length vars))
  else
    let op = [| " & "; " | "; " ^ " |].(Random.State.int st 3) in
    "(" ^ gen_expr st (depth - 1) ^ op ^ gen_expr st (depth - 1) ^ ")"

let synth_line id field =
  J.to_string
    (J.Obj [ "op", J.Str "synth"; "id", J.Num (float_of_int id); field ])

type record = {
  line : string;
  id : int;
  mutable key : string;
  mutable cached : bool;
  mutable lat : float;  (** client-observed seconds *)
  mutable before : int;  (** the probe taken just before the request *)
  measured : bool;  (** false for hot-set warm-up requests *)
}

let record ?(measured = true) id field =
  { line = synth_line id field; id; key = ""; cached = false; lat = 0.;
    before = 0; measured }

(* The server runs in a child process of its own, as compactd does, not
   in a second domain of this one.  A domain blocked in a system call
   makes every minor collection of the other domain wait for a thread
   wake-up: beside one busy thread on the 2-core host, the hot set's
   in-process solves took 20% longer with an idle second domain and no
   longer without one, and the host probe cannot see that wait. *)
type server = { pid : int; socket_path : string; client : Server.Client.t }

let engine_config dir =
  { Server.Engine.default_config with Server.Engine.cache_dir = Some dir }

(* The child's side: [main.exe --serve SOCKET CACHE_DIR]. *)
let serve_child socket_path cache_dir =
  let config =
    {
      (Server.Sock.default_config ~socket_path) with
      Server.Sock.engine = engine_config cache_dir;
    }
  in
  ignore (Server.Sock.serve config : Server.Engine.stats);
  Out_channel.with_open_text (socket_path ^ ".heap") (fun oc ->
      output_string oc (string_of_float (peak_heap_mb ())));
  exit 0

(* The largest peak heap, in MB, of the servers stopped so far. *)
let server_heap_mb = ref 0.

(* Wait until the server listens.  Server.Client.connect would sleep a
   seeded 2.5-5 ms backoff when it races the server's bind, and that
   sleep, not the server's work, would be most of the set-up time. *)
let rec await_listener pid path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Unix.close fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    if fst (Unix.waitpid [ Unix.WNOHANG ] pid) = pid then begin
      children := List.filter (( <> ) pid) !children;
      failwith ("the server process for " ^ path ^ " exited before listening")
    end;
    Domain.cpu_relax ();
    await_listener pid path

let start_server ~seed tag =
  let socket_path = scratch (tag ^ ".sock") in
  (* The child writes nothing to stdout, whose last line is the result. *)
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve"; socket_path; scratch (tag ^ ".cache") |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  await_listener pid socket_path;
  let client = Server.Client.connect ~seed socket_path in
  ignore (Server.Client.request client {|{"op":"status","id":0}|} : string);
  { pid; socket_path; client }

let stop s =
  (try ignore (Server.Client.request s.client {|{"op":"shutdown","id":0}|} : string)
   with End_of_file | Unix.Unix_error _ -> ());
  Server.Client.close s.client;
  check_global
    (reap s.pid = Unix.WEXITED 0)
    "the server process did not exit cleanly on shutdown";
  match In_channel.with_open_text (s.socket_path ^ ".heap") In_channel.input_all with
  | mb -> server_heap_mb := Float.max !server_heap_mb (float_of_string mb)
  | exception Sys_error _ -> ()

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* A synth response's (cached, key, payload), or why it is not a good
   one.  The payload is the response's "key":... tail without the
   closing brace — the exact bytes the cache stores. *)
let parse_synth_response resp =
  match J.parse resp with
  | exception J.Parse_error _ -> Error ("unparsable response " ^ clip resp)
  | j ->
    (match J.member "ok" j, J.member "cached" j, J.member "key" j with
     | Some (J.Bool true), Some (J.Bool cached), Some (J.Str key) ->
       (match find_sub resp "\"key\":" with
        | Some i -> Ok (cached, key, String.sub resp i (String.length resp - i - 1))
        | None -> Error ("no payload in " ^ clip resp))
     | _ -> Error ("not ok: " ^ clip resp))

let expected_response (r : record) payload =
  Protocol.synth_response ~id:(J.Num (float_of_int r.id)) ~cached:r.cached
    ~coalesced:false ~payload

(* Send one request and check its response: ok, and — for a hit — the
   exact bytes of the cold payload for its key.  [expect] short-cuts the
   check when the response is known in advance: a hot hit, whose record
   already carries its key. *)
let exchange client cold (r : record) ?expect () =
  r.before <- last_probe ();
  let t0 = now () in
  let resp = Server.Client.request client r.line in
  r.lat <- now () -. t0;
  let errs =
    match expect with
    | Some payload when String.equal resp (expected_response r payload) -> []
    | _ ->
      (match parse_synth_response resp with
       | Error e -> [ Printf.sprintf "request %d: %s" r.id e ]
       | Ok (cached, key, payload) ->
         r.key <- key;
         r.cached <- cached;
         (match Hashtbl.find_opt cold key, cached with
          | None, false ->
            Hashtbl.replace cold key payload;
            []
          | None, true -> [ Printf.sprintf "request %d: hit on a key never solved" r.id ]
          | Some p, _ ->
            if String.equal p payload then []
            else [ Printf.sprintf "request %d: payload differs from the cold one" r.id ]))
  in
  op_done errs

let server_stats client =
  match J.parse (Server.Client.request client {|{"op":"stats","id":0}|}) with
  | exception J.Parse_error _ -> None
  | j ->
    let field obj k =
      match Option.bind (J.member obj j) (J.member k) with
      | Some (J.Num f) -> int_of_float f
      | _ -> -1
    in
    Some (field "server" "solves", field "cache" "hits", field "cache" "inserts")

(* Engine.handle_batch's netlist construction for a request source. *)
let netlist_of_source = function
  | Protocol.Expr s ->
    let e = Logic.Parse.expr s in
    let inputs = Logic.Expr.vars e in
    let out =
      if not (List.mem "f" inputs) then "f"
      else
        let rec pick i =
          let n = Printf.sprintf "f%d" i in
          if List.mem n inputs then pick (i + 1) else n
        in
        pick 0
    in
    Logic.Netlist.create ~name:"expr" ~inputs ~outputs:[ out ]
      [ Logic.Netlist.n_expr out e ]
  | Protocol.Circuit name -> (Circuits.Suite.find name).Circuits.Suite.generate ()
  | Protocol.Blif text -> Logic.Blif.parse_string text

(* One server lifetime of traffic: the requests in order, and the cold
   payload of every key they solved. *)
type round = { cold : (string, string) Hashtbl.t; records : record list }

(* The hits of a round again, untraced and in process, on a fresh engine
   holding the same cold payloads: the server-side cost of each hit.
   Returns (handle seconds, client latency minus it) per hit. *)
let engine_hits (rd : round) =
  let engine = Server.Engine.create Server.Engine.default_config in
  Hashtbl.iter (fun k p -> Server.Cache.add (Server.Engine.cache engine) k p) rd.cold;
  (* Armed as in a serving process. *)
  Obs.set_metrics_enabled true;
  Obs.Recorder.set_enabled true;
  let out =
    List.filter_map
      (fun (r : record) ->
         if not r.cached then None
         else begin
           let resp, dt = time (fun () -> Server.Engine.handle engine r.line) in
           check_global
             (String.equal resp (expected_response r (Hashtbl.find rd.cold r.key)))
             (Printf.sprintf "request %d: in-process engine response differs" r.id);
           Some (dt, r.lat -. dt)
         end)
      rd.records
  in
  Obs.set_metrics_enabled false;
  Obs.Recorder.set_enabled false;
  out

(* The traced replay of one request through each layer's public
   functions: the path Engine.handle_batch takes for a lone request. *)
let replay_request ~cache ~persist acc (r : record) =
  let config = Server.Engine.default_config in
  let span = Obs.Span.with_ in
  match
    span "protocol.parse" (fun () ->
        Protocol.parse_request ~defaults:config.Server.Engine.defaults r.line)
  with
  | Ok (Protocol.Synth s) ->
    let options = { s.Protocol.options with P.jobs = 1; deadline = None } in
    let budget = Budget.seconds config.Server.Engine.request_deadline in
    let nl = span "logic.netlist" (fun () -> netlist_of_source s.Protocol.source) in
    let sbdd =
      span "bdd.build" (fun () ->
          Bdd.Sbdd.of_netlist ~budget ?order:options.P.order
            ~node_limit:options.P.bdd_node_limit nl)
    in
    let key =
      span "server.fingerprint" (fun () -> Server.Fingerprint.key ~options sbdd)
    in
    let hit = span "server.cache_probe" (fun () -> Server.Cache.find cache key) in
    let acc = add_bdd_stats acc (Bdd.Sbdd.stats sbdd) in
    let acc = { acc with probes = acc.probes + 1 } in
    (match hit with
     | Some payload ->
       ( { acc with probe_hits = acc.probe_hits + 1 },
         span "protocol.serialize" (fun () ->
             Protocol.synth_response ~id:s.Protocol.id ~cached:true
               ~coalesced:false ~payload) )
     | None ->
       let budget = Budget.seconds config.Server.Engine.request_deadline in
       let result =
         span "core.synthesize" (fun () ->
             P.synthesize_sbdd ~options ~budget ~name:nl.Logic.Netlist.name sbdd)
       in
       let verdict =
         span "crossbar.verify" (fun () ->
             Crossbar.Verify.auto ~trials:config.Server.Engine.verify_trials
               result.P.design ~inputs:nl.Logic.Netlist.inputs
               ~reference:(Logic.Netlist.eval_point nl)
               ~outputs:nl.Logic.Netlist.outputs)
       in
       check_global (verdict = Crossbar.Verify.Ok)
         (Printf.sprintf "request %d: replayed design fails verification" r.id);
       let report = result.P.report in
       let payload, resp =
         span "protocol.serialize" (fun () ->
             let payload =
               Protocol.synth_payload ~key ~design:result.P.design ~report
             in
             ( payload,
               Protocol.synth_response ~id:s.Protocol.id ~cached:false
                 ~coalesced:false ~payload ))
       in
       if (not report.Compact.Report.deadline_hit)
          && Compact.Report.path_pristine report.Compact.Report.solver_path
       then begin
         span "server.cache_add" (fun () -> Server.Cache.add cache key payload);
         span "persist.append" (fun () ->
             Server.Persist.append persist key payload;
             ignore
               (Server.Persist.maybe_compact persist
                  (lazy (Server.Cache.to_list cache))
                : bool))
       end;
       add_verify acc nl.Logic.Netlist.inputs, resp)
  | _ ->
    check_global false (Printf.sprintf "request %d: replay could not parse it" r.id);
    acc, ""

let replays = ref 0

(* Replay a round from an empty cache and journal, as its server began. *)
let replay_round acc (rd : round) =
  let config = Server.Engine.default_config in
  let cache =
    Server.Cache.create ~max_entries:config.Server.Engine.cache_entries
      ~max_bytes:config.Server.Engine.cache_bytes ()
  in
  incr replays;
  let persist, _ =
    Server.Persist.open_dir (scratch (Printf.sprintf "replay%d.cache" !replays))
  in
  let since = ref (now ()) in
  let acc =
    List.fold_left
      (fun acc (r : record) ->
         let at = last_probe () in
         let (a, resp), dt = time (fun () -> replay_request ~cache ~persist acc r) in
         check_global
           (String.equal resp (expected_response r (Hashtbl.find rd.cold r.key)))
           (Printf.sprintf
              "request %d: traced replay response differs from the served one" r.id);
         if Obs.enabled () && a.ops mod 500 = 499 then Trace.fold ();
         if now () -. !since >= probe_period then begin
           host_probe ();
           since := now ()
         end;
         {
           a with
           ops = a.ops + 1;
           replay_wall = a.replay_wall +. dt;
           replay_timed = { dt; at } :: a.replay_timed;
           response_bytes = a.response_bytes +. float_of_int (String.length resp);
         })
      acc rd.records
  in
  let journal = Server.Persist.journal_bytes persist in
  Server.Persist.close persist;
  { acc with journal_bytes = acc.journal_bytes +. float_of_int journal }

(* The replay runs twice, untraced and then traced, one right after the
   other, with probes between its operations; the difference of the two
   at reference speed is the tracing overhead.  Transport is client
   latency minus Engine.handle time, measured on hits; a miss is charged
   the median hit's transport (the socket path does not depend on
   whether the server solved). *)
let traced_serve args rounds =
  (* A replay of traffic that already failed a check would only repeat
     the failure. *)
  if !failed > 0 || !broken then finish [];
  let hits = List.concat_map engine_hits rounds in
  let records = List.concat_map (fun rd -> rd.records) rounds in
  let per_hit = List.map snd hits in
  let per_miss = if per_hit = [] then 0. else median per_hit in
  let transport =
    List.fold_left ( +. ) 0. per_hit
    +. (float_of_int (List.length records - List.length hits) *. per_miss)
  in
  printf "  transport: median %.1f us per request over %d hits\n"
    (per_miss *. 1e6) (List.length hits);
  let replay () =
    host_probe ();
    let r = List.fold_left replay_round empty_replay rounds in
    host_probe ();
    r
  in
  let untraced = replay () in
  Trace.start ();
  let r = replay () in
  Trace.stop ();
  let p = probe_array () in
  let at_ref_wall r = List.fold_left (fun a t -> a +. at_ref p t) 0. r.replay_timed in
  finish
    (per_layer ~workload:args.workload
       ~overhead:(at_ref_wall r, at_ref_wall untraced)
       { r with transport })

let ms_of (r : record) = r.lat *. 1e3

(* Client latency in ms at reference speed. *)
let ref_ms p (r : record) = r.lat *. factor p r.before *. 1e3

let stretch_time f stretches = List.fold_left (fun a t -> a +. f t) 0. stretches

(* Semiperimeter, max dimension and VH count summed over the designs of
   [cold] (cache key -> payload), read back from their wire reports. *)
let quality_totals cold =
  Hashtbl.fold
    (fun _ payload (s, d, vh) ->
       let report = J.member "report" (J.parse ("{" ^ payload ^ "}")) in
       let field k =
         match Option.bind report (J.member k) with
         | Some (J.Num f) -> int_of_float f
         | _ -> 0
       in
       ( s + field "semiperimeter",
         d + max (field "rows") (field "cols"),
         vh + field "vh_count" ))
    cold (0, 0, 0)

let serve_summary ?(extra = []) args ~records ~wall ~server_counts ~quality =
  let measured = List.filter (fun r -> r.measured) records in
  let hits = List.filter (fun r -> r.cached) measured in
  let misses = List.filter (fun r -> not r.cached) measured in
  let n = List.length measured in
  let solves, srv_hits, inserts = server_counts in
  printf "%s: %d requests in %.3f s (seed %d): %d hits, %d misses; server \
          solves %d, cache hits %d, inserts %d\n"
    args.workload n wall args.seed (List.length hits) (List.length misses)
    solves srv_hits inserts;
  let p l q = hd_percentile (List.map ms_of l) q in
  let or_zero x = if Float.is_nan x then 0. else x in
  printf "  miss_p50_ms %.4f  miss_p90_ms %.4f  hit_p50_us %.2f  hit_p99_us %.2f  \
          serve_rps %.2f\n"
    (p misses 50.) (p misses 90.) (1e3 *. p hits 50.) (1e3 *. p hits 99.)
    (float_of_int n /. wall);
  (* The heap that matters is the server's, not this client's. *)
  let heap = !server_heap_mb in
  printf "  error_rate %.4f  peak_heap_mb %.1f MB  host probe %.2f ms median over %d\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) heap
    (1e3 *. median !host_probes) !n_probes;
  let s_total, d_total, vh_total = quality in
  printf "  semiperimeter_total %d  max_dimension_total %d  vh_total %d\n"
    s_total d_total vh_total;
  let count x = J.Num (float_of_int x) in
  detail ~args
    ([
      "requests", count n;
      "hits", count (List.length hits);
      "misses", count (List.length misses);
      "server_solves", count solves;
      "server_hits", count srv_hits;
      "cache_inserts", count inserts;
      "miss_p50_ms", J.Num (or_zero (p misses 50.));
      "miss_p90_ms", J.Num (or_zero (p misses 90.));
      "hit_p50_us", J.Num (or_zero (1e3 *. p hits 50.));
      "hit_p99_us", J.Num (or_zero (1e3 *. p hits 99.));
      "serve_rps", J.Num (float_of_int n /. wall);
      "error_rate", J.Num (float_of_int !failed /. float_of_int (max 1 !attempted));
      "peak_heap_mb", J.Num heap;
    ]
    @ List.map (fun m -> m.m_name, J.Num m.m_value) (quality_metrics quality)
    @ extra);
  hits, n

(* Loadgen's request stream: with probability 0.4 one of 4 hot
   expressions, otherwise a fresh depth-4 expression, every draw derived
   from the seed exactly as Server.Loadgen.run does it. *)
let loadgen_stream seed n =
  let hot =
    Array.init 4 (fun i -> gen_expr (Crossbar.Rng.state seed ("loadgen-hot", i)) 4)
  in
  List.init n (fun i ->
      let st = Crossbar.Rng.state seed ("loadgen-req", i + 1) in
      if Random.State.float st 1. < 0.4 then hot.(Random.State.int st 4)
      else gen_expr st 4)

(* A serve-mix round is the first 100 requests of BENCH_pr7.json's
   traffic (loadgen at its default seed): 37 hits and 63 MIP-solved
   misses, 7-10 s on the reference host.  The run's seed shuffles
   their order.  A fixed request multiset keeps the miss percentiles
   comparable across seeds; fresh random expressions would not, since a
   miss costs anything from 0.5 ms to seconds depending on BDD size.
   (The stream's request 112 would also stop its MIP rung on the 15 s
   budget and measure a timer, not work.) *)
let mix_round seed j =
  Array.to_list
    (shuffle
       (Crossbar.Rng.state seed ("perfbench-mix-order", j))
       (Array.of_list (loadgen_stream Crossbar.Rng.default_seed 100)))

let serve_mix args =
  let run_round j server =
    (* With --requests, loadgen's own stream at the run's seed instead:
       at seed 24301 and 200 requests that is BENCH_pr7.json's run. *)
    let exprs =
      Array.of_list
        (match args.requests with
         | Some n -> loadgen_stream args.seed n
         | None -> mix_round args.seed j)
    in
    let cold = Hashtbl.create 256 in
    let results, stretches =
      probed_loop (fun i ->
          if i >= Array.length exprs then None
          else begin
            let r = record (i + 1) ("expr", J.Str exprs.(i)) in
            exchange server.client cold r ();
            Some r
          end)
    in
    let records = Array.to_list (Array.map fst results) in
    let counts = Option.value (server_stats server.client) ~default:(-1, -1, -1) in
    stop server;
    let solves, srv_hits, inserts = counts in
    let hits = List.length (List.filter (fun r -> r.cached) records) in
    let misses = List.length records - hits in
    check_global (solves = misses)
      (Printf.sprintf "round %d: server solved %d times for %d misses" j solves misses);
    check_global (srv_hits = hits)
      (Printf.sprintf "round %d: server counted %d hits, the client saw %d" j
         srv_hits hits);
    (* Every solve of the fixed round is pristine and cached. *)
    check_global
      (if args.requests = None then inserts = solves else inserts <= solves)
      (Printf.sprintf "round %d: %d cache inserts for %d solves" j inserts solves);
    { cold; records }, stretches, counts
  in
  let first, setup_reps =
    repeat_setup 41 ~discard:stop (fun rep ->
        start_server ~seed:args.seed (Printf.sprintf "mix%d" rep))
  in
  (* Whole rounds, each on a fresh server so every round sees the same
     misses. *)
  let n_rounds =
    if args.requests = None then whole_units args.seconds ~nominal:7. else 1
  in
  let rounds =
    List.init n_rounds (fun i ->
        let j = i + 1 in
        run_round j
          (if j = 1 then first
           else start_server ~seed:args.seed (Printf.sprintf "mix-round%d" j)))
  in
  let add (a, b, c) (_, _, (x, y, z)) = a + x, b + y, c + z in
  let records = List.concat_map (fun (rd, _, _) -> rd.records) rounds in
  let stretches = List.concat_map (fun (_, s, _) -> s) rounds in
  let quality = List.map (fun (rd, _, _) -> quality_totals rd.cold) rounds in
  check_global
    (List.for_all (( = ) (List.hd quality)) quality)
    "rounds solved the same requests into different designs";
  let misses = List.filter (fun r -> not r.cached) records in
  let metrics () =
    let p = probe_array () in
    let lat = List.map (ref_ms p) misses in
    [
      metric "latency_p50_ms" "ms" (hd_percentile lat 50.);
      metric "latency_tail_ms" "ms" (hd_percentile lat 90.);
      metric "throughput_ops_s" "1/s"
        (float_of_int (List.length records) /. stretch_time (at_ref p) stretches);
      metric "setup_s" "s" (setup_at_ref p setup_reps);
    ]
  in
  ignore
    (serve_summary args ~records ~wall:(stretch_time (fun t -> t.dt) stretches)
       ~server_counts:(List.fold_left add (0, 0, 0) rounds)
       ~quality:(List.hd quality)
       ~extra:[ "rounds", J.Num (float_of_int n_rounds) ]
     : record list * int);
  if args.trace then traced_serve args (List.map (fun (rd, _, _) -> rd) rounds)
  else finish (metrics () @ quality_metrics (List.hd quality))

(* serve-hot's hot set: BENCH_pr7.json's 4 hot expressions and three
   Table-I circuits, c7552 among them at thousands of BDD nodes — well
   under the 512-entry cache. *)
let hot_circuits = [ "c7552"; "dec"; "ctrl" ]

let hot_fields =
  Array.append
    (Array.init 4 (fun i ->
         ( "expr",
           J.Str
             (gen_expr (Crossbar.Rng.state Crossbar.Rng.default_seed ("loadgen-hot", i)) 4) )))
    (Array.of_list (List.map (fun c -> "circuit", J.Str c) hot_circuits))

let serve_hot args =
  let n_hot = Array.length hot_fields in
  (* Set-up = bind + engine create + solving the hot set once.  Every
     repetition's warm-up responses are checked; only the last server is
     kept. *)
  let (server, cold, warm), setup_reps =
    repeat_setup 5
      ~discard:(fun (s, _, _) -> stop s)
      (fun rep ->
         let s = start_server ~seed:args.seed (Printf.sprintf "hot%d" rep) in
         let cold = Hashtbl.create 16 in
         let warm =
           Array.to_list
             (Array.mapi (fun i f -> record ~measured:false (i + 1) f) hot_fields)
         in
         List.iter (fun r -> exchange s.client cold r ()) warm;
         s, cold, warm)
  in
  let warm_arr = Array.of_list warm in
  (* A closed loop until [seconds] have passed; the seed picks which hot
     entry each request repeats. *)
  let t0 = now () in
  let results, stretches =
    probed_loop (fun k ->
        if now () -. t0 >= args.seconds then None
        else begin
          let id = n_hot + 1 + k in
          let i =
            Random.State.int (Crossbar.Rng.state args.seed ("perfbench-hot-req", id)) n_hot
          in
          let r = record id hot_fields.(i) in
          r.key <- warm_arr.(i).key;
          r.cached <- true;
          exchange server.client cold r ~expect:(Hashtbl.find cold r.key) ();
          Some r
        end)
  in
  let records = Array.to_list (Array.map fst results) in
  let counts = Option.value (server_stats server.client) ~default:(-1, -1, -1) in
  stop server;
  let solves, srv_hits, _ = counts in
  let quality = quality_totals cold in
  let metrics () =
    let p = probe_array () in
    let lat = List.map (ref_ms p) records in
    [
      metric "latency_p50_ms" "ms" (hd_percentile lat 50.);
      metric "latency_tail_ms" "ms" (hd_percentile lat 99.);
      metric "throughput_ops_s" "1/s"
        (float_of_int (List.length records) /. stretch_time (at_ref p) stretches);
      metric "setup_s" "s" (setup_at_ref p setup_reps);
    ]
  in
  let hits, n =
    serve_summary args ~records:(warm @ records)
      ~wall:(stretch_time (fun t -> t.dt) stretches) ~server_counts:counts ~quality
  in
  check_global (List.length hits = n) "a hot-set request missed the cache";
  check_global (srv_hits = n)
    (Printf.sprintf "server counted %d hits for %d hot requests" srv_hits n);
  check_global (solves = Hashtbl.length cold)
    (Printf.sprintf "server solved %d times for %d hot keys" solves
       (Hashtbl.length cold));
  if args.trace then traced_serve args [ { cold; records = warm @ records } ]
  else finish (metrics () @ quality_metrics quality)

let () =
  Obs.set_enabled false;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Sys.argv with
  | [| _; "--serve"; socket_path; cache_dir |] -> serve_child socket_path cache_dir
  | _ ->
  let args = parse_args () in
  match args.workload with
  | "table1-synth" -> table1 args
  | "serve-mix" -> serve_mix args
  | _ -> serve_hot args
