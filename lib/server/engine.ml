module J = Obs.Json
module Budget = Resilience.Budget

type config = {
  defaults : Compact.Pipeline.options;
  jobs : int;
  max_queue : int;
  request_deadline : float;
  verify_trials : int;
  cache_entries : int;
  cache_bytes : int;
  cache_dir : string option;
  fsync : bool;
  journal_ratio : float;
}

let default_config =
  {
    defaults = Compact.Pipeline.default_options;
    jobs = 1;
    max_queue = 64;
    request_deadline = 30.;
    verify_trials = 64;
    cache_entries = 512;
    cache_bytes = 16 * 1024 * 1024;
    cache_dir = None;
    fsync = false;
    journal_ratio = 4.;
  }

type t = {
  config : config;
  cache : Cache.t;
  persist : Persist.t option;
  started : float;
  recovered : int;
  dropped : int;
  mutable served : int;
  mutable synth_ok : int;
  mutable synth_err : int;
  mutable solves : int;
  mutable coalesced : int;
  mutable rejected : int;
  mutable shutdown : bool;
  (* Health surface, updated by the serving loop (Sock) so `health`
     replies reflect socket-level load, not just engine internals. *)
  mutable draining : bool;
  mutable in_flight : int;
}

type stats = {
  served : int;
  synth_ok : int;
  synth_err : int;
  solves : int;
  coalesced : int;
  rejected : int;
  recovered : int;
  dropped : int;
  cache : Cache.stats;
}

let c_requests = Obs.Counter.make "server.requests"
let c_solves = Obs.Counter.make "server.solves"
let c_coalesced = Obs.Counter.make "server.coalesced"
let c_rejected = Obs.Counter.make "server.rejected"

(* Phase-latency histograms (armed whenever the metrics plane or
   tracing is on; see Obs.recording). *)
let h_request = Obs.Hist.make_ms "server.request-ms"
let h_solve = Obs.Hist.make_ms "server.solve-ms"
let h_verify = Obs.Hist.make_ms "server.verify-ms"
let h_probe = Obs.Hist.make_ms "server.cache-probe-ms"
let h_batch = Obs.Hist.make_count "server.batch-size"

(* The fingerprint-consistency check every recovered value must pass
   before admission, on top of the record CRCs [Persist] already
   enforced: the payload parses, and the cache key embedded in it is the
   record's own key — a spliced or mis-keyed record is dropped, never
   served.  Entries written by another engine version keep their old
   keys and simply never match a fresh request's fingerprint. *)
let recovered_payload_ok key value =
  match J.parse ("{" ^ value ^ "}") with
  | exception J.Parse_error _ -> false
  | j ->
    J.member "key" j = Some (J.Str key)
    && J.member "design" j <> None
    && J.member "report" j <> None

let create config =
  if config.jobs < 1 then invalid_arg "Engine.create: jobs must be >= 1";
  if config.max_queue < 1 then
    invalid_arg "Engine.create: max_queue must be >= 1";
  let cache =
    Cache.create ~max_entries:config.cache_entries
      ~max_bytes:config.cache_bytes ()
  in
  let persist, recovered, dropped =
    match config.cache_dir with
    | None -> None, 0, 0
    | Some dir ->
      let p, r =
        Persist.open_dir ~verify:recovered_payload_ok ~fsync:config.fsync
          ~journal_ratio:config.journal_ratio dir
      in
      List.iter (fun (k, v) -> Cache.add cache k v) r.Persist.entries;
      Some p, List.length r.Persist.entries, r.Persist.dropped
  in
  {
    config;
    cache;
    persist;
    started = Obs.Clock.now ();
    recovered;
    dropped;
    served = 0;
    synth_ok = 0;
    synth_err = 0;
    solves = 0;
    coalesced = 0;
    rejected = 0;
    shutdown = false;
    draining = false;
    in_flight = 0;
  }

let set_load (t : t) ~draining ~in_flight =
  t.draining <- draining;
  t.in_flight <- in_flight

let stats (t : t) : stats =
  {
    served = t.served;
    synth_ok = t.synth_ok;
    synth_err = t.synth_err;
    solves = t.solves;
    coalesced = t.coalesced;
    rejected = t.rejected;
    recovered = t.recovered;
    dropped = t.dropped;
    cache = Cache.stats t.cache;
  }

let cache (t : t) = t.cache
let wants_shutdown (t : t) = t.shutdown

let flush (t : t) =
  match t.persist with
  | None -> ()
  | Some p -> Persist.snapshot p (Cache.to_list t.cache)

let close (t : t) =
  match t.persist with
  | None -> ()
  | Some p ->
    Persist.snapshot p (Cache.to_list t.cache);
    Persist.close p

(* ------------------------------------------------------------------ *)
(* Structured error mapping: anything a request can end in becomes an
   error response on that request's line, never an escaping exception. *)

let error_of_exn id exn : Protocol.error =
  let mk code message = { Protocol.err_id = id; code; message } in
  match exn with
  | Budget.Exhausted r ->
    mk Protocol.Exhausted
      (Printf.sprintf "budget exhausted (%s) before a result was produced"
         (Budget.reason_name r))
  | Compact.Label_mip.Infeasible msg ->
    mk Protocol.Infeasible ("constraints are infeasible: " ^ msg)
  | Bdd.Manager.Size_limit n ->
    mk Protocol.Size_limit
      (Printf.sprintf "BDD exceeded the %d-node budget" n)
  | Logic.Parse.Error msg -> mk Protocol.Bad_request ("bad expression: " ^ msg)
  | Logic.Netlist.Ill_formed msg ->
    mk Protocol.Bad_request ("ill-formed netlist: " ^ msg)
  | Logic.Blif.Parse_error { line; message } ->
    mk Protocol.Bad_request
      (Printf.sprintf "bad BLIF (line %d): %s" line message)
  | exn -> mk Protocol.Internal (Printexc.to_string exn)

let netlist_of_source = function
  | Protocol.Expr s -> Logic.Netlist.of_expr ~name:"expr" (Logic.Parse.expr s)
  | Protocol.Circuit name ->
    (match Circuits.Suite.find name with
     | entry -> entry.Circuits.Suite.generate ()
     | exception Not_found ->
       raise (Logic.Parse.Error (Printf.sprintf "unknown circuit %S" name)))
  | Protocol.Blif text -> Logic.Blif.parse_string text

(* Inner solves run without their own global deadline: the per-request
   budget is the server's to manage, not the request's. *)
let solve_options (o : Compact.Pipeline.options) =
  { o with Compact.Pipeline.deadline = None }

type prepared = {
  p_id : J.t;
  p_key : string;
  p_sbdd : Bdd.Sbdd.t;
  p_options : Compact.Pipeline.options;
  p_netlist : Logic.Netlist.t;
}

(* Parse + SBDD build + canonical key, under the request budget.  The
   probe itself happens back in the caller so the cache is only ever
   touched from the serving domain. *)
let prepare t (s : Protocol.synth) =
  match
    Budget.protect_oom @@ fun () ->
    let budget = Budget.seconds t.config.request_deadline in
    let options = solve_options s.Protocol.options in
    let netlist = netlist_of_source s.Protocol.source in
    let sbdd =
      Bdd.Sbdd.of_netlist ~budget ?order:options.Compact.Pipeline.order
        ~node_limit:options.Compact.Pipeline.bdd_node_limit netlist
    in
    let key = Fingerprint.key ~options sbdd in
    { p_id = s.Protocol.id; p_key = key; p_sbdd = sbdd; p_options = options;
      p_netlist = netlist }
  with
  | p -> Ok p
  | exception exn -> Error (error_of_exn s.Protocol.id exn)

(* One cold solve: synthesize, verify, serialize.  Returns the cached
   payload plus the pristine verdict; never raises. *)
let solve t p =
  match
    Budget.protect_oom @@ fun () ->
    Obs.Hist.time h_solve @@ fun () ->
    Obs.Span.with_ ~attrs:[ "key", p.p_key ] "solve" @@ fun () ->
    let budget = Budget.seconds t.config.request_deadline in
    let result =
      Compact.Pipeline.synthesize_sbdd ~options:p.p_options ~budget
        ~name:p.p_netlist.Logic.Netlist.name p.p_sbdd
    in
    let verified =
      Obs.Hist.time h_verify @@ fun () ->
      Obs.Span.with_ "verify" @@ fun () ->
      Crossbar.Verify.auto ~trials:t.config.verify_trials
        result.Compact.Pipeline.design
        ~inputs:p.p_netlist.Logic.Netlist.inputs
        ~reference:(Logic.Netlist.eval_point p.p_netlist)
        ~outputs:p.p_netlist.Logic.Netlist.outputs
    in
    (match verified with
     | Crossbar.Verify.Ok -> ()
     | Crossbar.Verify.Failed _ ->
       failwith "cold solve failed functional verification");
    let report = result.Compact.Pipeline.report in
    let payload =
      Protocol.synth_payload ~key:p.p_key
        ~design:result.Compact.Pipeline.design ~report
    in
    (* Pristine = safe to serve to any future identical request: the
       solver path never degraded under time pressure (ladder fallbacks
       and expired deadlines are timing-dependent; a pristine path is a
       single rung, [Report.path_pristine]) and no solver-affecting
       fault injection was armed while solving.  The disk points are
       deliberately exempt: they fault the storage layer, whose CRCs
       catch the damage on recovery, and blocking admission under them
       would leave the crash-restart battery nothing to recover. *)
    let solver_injection_armed =
      List.exists Resilience.Inject.armed
        [
          Resilience.Inject.Timeout; Resilience.Inject.Oom;
          Resilience.Inject.Cg_divergence; Resilience.Inject.Pool_poison;
          Resilience.Inject.Defect_truncate;
        ]
    in
    let pristine =
      (not report.Compact.Report.deadline_hit)
      && Compact.Report.path_pristine report.Compact.Report.solver_path
      && not solver_injection_armed
    in
    payload, pristine
  with
  | r -> Ok r
  | exception exn -> Error (error_of_exn p.p_id exn)

(* ------------------------------------------------------------------ *)

let status_response (t : t) id =
  Protocol.ok_response ~id
    [
      "engine", J.Str Version.engine;
      "protocol", J.Str "jsonl/1";
      "jobs", J.Num (float_of_int t.config.jobs);
      "max_queue", J.Num (float_of_int t.config.max_queue);
      "uptime_s", J.Num (Obs.Clock.now () -. t.started);
      ( "cache_entries",
        J.Num (float_of_int (Cache.stats t.cache).Cache.entries) );
    ]

let stats_response (t : t) id =
  let s = stats t in
  Protocol.ok_response ~id
    ([
      ( "server",
        J.Obj
          [
            "uptime_s", J.Num (Obs.Clock.now () -. t.started);
            "served", J.Num (float_of_int s.served);
            "synth_ok", J.Num (float_of_int s.synth_ok);
            "synth_err", J.Num (float_of_int s.synth_err);
            "solves", J.Num (float_of_int s.solves);
            "coalesced", J.Num (float_of_int s.coalesced);
            "rejected", J.Num (float_of_int s.rejected);
          ] );
      ( "cache",
        J.Obj
          [
            "hits", J.Num (float_of_int s.cache.Cache.hits);
            "misses", J.Num (float_of_int s.cache.Cache.misses);
            "inserts", J.Num (float_of_int s.cache.Cache.inserts);
            "evictions", J.Num (float_of_int s.cache.Cache.evictions);
            "entries", J.Num (float_of_int s.cache.Cache.entries);
            "bytes", J.Num (float_of_int s.cache.Cache.bytes);
          ] );
    ]
    @
    (match t.persist with
     | None -> []
     | Some p ->
       [
         ( "persist",
           J.Obj
             [
               "recovered", J.Num (float_of_int s.recovered);
               "dropped", J.Num (float_of_int s.dropped);
               ( "journal_bytes",
                 J.Num (float_of_int (Persist.journal_bytes p)) );
               ( "snapshot_bytes",
                 J.Num (float_of_int (Persist.snapshot_bytes p)) );
             ] );
       ]))

(* Every registered counter/gauge/histogram, non-destructively — the
   registry keeps accumulating after the reply is rendered. *)
let metrics_response (_ : t) id =
  Protocol.ok_response ~id (Obs.Metrics.json_fields (Obs.Metrics.snapshot ()))

let health_response (t : t) id =
  let s = stats t in
  Protocol.ok_response ~id
    [
      "status", J.Str (if t.draining then "draining" else "ok");
      "uptime_s", J.Num (Obs.Clock.now () -. t.started);
      "draining", J.Bool t.draining;
      "in_flight", J.Num (float_of_int t.in_flight);
      "recovered", J.Num (float_of_int s.recovered);
      "dropped", J.Num (float_of_int s.dropped);
      "cache_entries", J.Num (float_of_int s.cache.Cache.entries);
    ]

let handle_batch (t : t) lines =
  let t_batch = Obs.Clock.now () in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  Obs.Hist.observe h_batch (float_of_int n);
  let slots = Array.make n None in
  let fill i r =
    (* Request latency = arrival at the batch to response fill. *)
    Obs.Hist.observe h_request ((Obs.Clock.now () -. t_batch) *. 1e3);
    slots.(i) <- Some r
  in
  let fill_err i (e : Protocol.error) =
    t.synth_err <- t.synth_err + 1;
    fill i (Protocol.error_response e)
  in
  let parsed =
    Array.map (Protocol.parse_request ~defaults:t.config.defaults) lines
  in
  (* Non-synth ops answer inline; synth requests pass admission control
     in arrival order. *)
  let synths = ref [] in
  let admitted = ref 0 in
  Array.iteri
    (fun i req ->
       Obs.Counter.incr c_requests;
       match req with
       | Error e -> fill_err i e
       | Ok (Protocol.Status id) -> fill i (status_response t id)
       | Ok (Protocol.Stats id) -> fill i (stats_response t id)
       | Ok (Protocol.Metrics id) -> fill i (metrics_response t id)
       | Ok (Protocol.Health id) -> fill i (health_response t id)
       | Ok (Protocol.Shutdown id) ->
         t.shutdown <- true;
         fill i (Protocol.ok_response ~id [ "shutting_down", J.Bool true ])
       | Ok (Protocol.Synth s) ->
         if !admitted >= t.config.max_queue then begin
           t.rejected <- t.rejected + 1;
           Obs.Counter.incr c_rejected;
           fill_err i
             {
               Protocol.err_id = s.Protocol.id;
               code = Protocol.Overload;
               message =
                 Printf.sprintf
                   "admission control: batch already holds %d requests"
                   t.config.max_queue;
             }
         end
         else begin
           incr admitted;
           synths := (i, s) :: !synths
         end)
    parsed;
  (* Prepare + cache probe, in arrival order, serving domain only. *)
  let groups : (string, (int * prepared) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let group_order = ref [] in
  List.iter
    (fun (i, s) ->
       Obs.Span.with_ ~attrs:[ "op", "synth" ] "request" @@ fun () ->
       match prepare t s with
       | Error e -> fill_err i e
       | Ok p ->
         (* The probe span is traced-only: recording a span costs more
            than the probe it would log, so the always-on flight ring
            keeps just the request span on the hit path (h_probe still
            times every probe for the metrics plane). *)
         let find () = Cache.find t.cache p.p_key in
         let hit =
           Obs.Hist.time h_probe @@ fun () ->
           if Obs.enabled () then
             Obs.Span.with_ ~attrs:[ "key", p.p_key ] "cache-probe" find
           else find ()
         in
         (match hit with
          | Some payload ->
            t.synth_ok <- t.synth_ok + 1;
            fill i
              (Protocol.synth_response ~id:p.p_id ~cached:true
                 ~coalesced:false ~payload)
          | None ->
            (match Hashtbl.find_opt groups p.p_key with
             | Some members -> members := (i, p) :: !members
             | None ->
               let members = ref [ (i, p) ] in
               Hashtbl.replace groups p.p_key members;
               group_order := p.p_key :: !group_order)))
    (List.rev !synths);
  let group_order = List.rev !group_order in
  (* Single-flight: one solve per distinct key, on the pool. *)
  let leaders =
    List.map
      (fun key ->
         let members = List.rev !(Hashtbl.find groups key) in
         t.solves <- t.solves + 1;
         Obs.Counter.incr c_solves;
         let followers = List.length members - 1 in
         t.coalesced <- t.coalesced + followers;
         Obs.Counter.add c_coalesced followers;
         members, snd (List.hd members))
      group_order
  in
  let outcomes =
    match leaders with
    | [] -> []
    | [ (_, leader) ] -> [ solve t leader ]
    | _ when t.config.jobs = 1 ->
      List.map (fun (_, leader) -> solve t leader) leaders
    | _ ->
      (* Spawning worker domains costs milliseconds, so the pool only
         runs for batches with at least two distinct solves to overlap. *)
      (match
         Parallel.with_pool ~jobs:t.config.jobs (fun pool ->
             Parallel.map pool (fun (_, leader) -> solve t leader) leaders)
       with
       | outcomes -> outcomes
       | exception _ ->
         (* A pool-level fault (poisoned task, cancelled batch) must not
            take down requests that can still solve: retry sequentially
            with per-request protection. *)
         List.map (fun (_, leader) -> solve t leader) leaders)
  in
  List.iter2
    (fun (members, _) outcome ->
       match outcome with
       | Error e ->
         List.iter
           (fun (i, (p : prepared)) ->
              fill_err i { e with Protocol.err_id = p.p_id })
           members
       | Ok (payload, pristine) ->
         if pristine then begin
           let key = (List.hd members |> snd).p_key in
           Cache.add t.cache key payload;
           match t.persist with
           | None -> ()
           | Some p ->
             Persist.append p key payload;
             ignore
               (Persist.maybe_compact p (lazy (Cache.to_list t.cache))
                : bool)
         end;
         List.iteri
           (fun k (i, (p : prepared)) ->
              t.synth_ok <- t.synth_ok + 1;
              fill i
                (Protocol.synth_response ~id:p.p_id ~cached:false
                   ~coalesced:(k > 0) ~payload))
           members)
    leaders outcomes;
  t.served <- t.served + n;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None ->
           Protocol.error_response
             {
               Protocol.err_id = J.Null;
               code = Protocol.Internal;
               message = "request produced no response";
             })
       slots)

let handle t line =
  match handle_batch t [ line ] with
  | [ r ] -> r
  | _ -> assert false
