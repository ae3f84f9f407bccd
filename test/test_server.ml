(* compactd protocol and serving-loop battery.

   Conformance goldens for the JSONL wire protocol (valid requests,
   malformed JSON, unknown ops, option overrides, the oversized-line
   error), socket-level tests against a real [Sock.serve] loop running
   in a companion domain (round-trips, client disconnect mid-request,
   oversized lines), and the pipeline-reentrancy regression backing the
   serving core: back-to-back in-process syntheses are byte-identical.

   Run via the @server alias at COMPACT_JOBS=1 and COMPACT_JOBS=4. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

module J = Obs.Json
module Protocol = Server.Protocol
module Engine = Server.Engine

let defaults = Compact.Pipeline.default_options

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

let parse line = Protocol.parse_request ~defaults line

let code_of = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> Protocol.error_code_name e.Protocol.code

(* ------------------------------------------------------------------ *)
(* Protocol conformance goldens *)

let parse_tests =
  [
    Alcotest.test_case "valid synth with expr" `Quick (fun () ->
        match parse {|{"op":"synth","id":7,"expr":"a & b"}|} with
        | Ok (Protocol.Synth s) ->
          check tb "id round-trips" true (s.Protocol.id = J.Num 7.);
          (match s.Protocol.source with
           | Protocol.Expr e -> check ts "expr" "a & b" e
           | _ -> Alcotest.fail "wrong source")
        | _ -> Alcotest.fail "expected Synth");
    Alcotest.test_case "valid synth with circuit and options" `Quick
      (fun () ->
         match
           parse
             {|{"op":"synth","id":"x","circuit":"dec","options":{"gamma":0.75,"solver":"heuristic","alignment":false}}|}
         with
         | Ok (Protocol.Synth s) ->
           (match s.Protocol.source with
            | Protocol.Circuit c -> check ts "circuit" "dec" c
            | _ -> Alcotest.fail "wrong source");
           check (Alcotest.float 1e-9) "gamma" 0.75
             s.Protocol.options.Compact.Pipeline.gamma;
           check tb "alignment off" false
             s.Protocol.options.Compact.Pipeline.alignment;
           check ts "solver" "heuristic"
             (Compact.Pipeline.solver_name
                s.Protocol.options.Compact.Pipeline.solver)
         | _ -> Alcotest.fail "expected Synth");
    Alcotest.test_case "status / stats / shutdown" `Quick (fun () ->
        (match parse {|{"op":"status","id":1}|} with
         | Ok (Protocol.Status _) -> ()
         | _ -> Alcotest.fail "expected Status");
        (match parse {|{"op":"stats"}|} with
         | Ok (Protocol.Stats id) -> check tb "null id" true (id = J.Null)
         | _ -> Alcotest.fail "expected Stats");
        match parse {|{"op":"shutdown","id":[1,2]}|} with
        | Ok (Protocol.Shutdown id) ->
          check tb "structured id" true (id = J.Arr [ J.Num 1.; J.Num 2. ])
        | _ -> Alcotest.fail "expected Shutdown");
    Alcotest.test_case "malformed JSON is a parse error" `Quick (fun () ->
        check ts "code" "parse" (code_of (parse "not json"));
        check ts "code" "parse" (code_of (parse "{\"op\":")));
    Alcotest.test_case "non-object JSON is a parse error" `Quick (fun () ->
        check ts "code" "parse" (code_of (parse "[1,2,3]")));
    Alcotest.test_case "unknown op" `Quick (fun () ->
        check ts "code" "unknown-op"
          (code_of (parse {|{"op":"frobnicate","id":1}|})));
    Alcotest.test_case "synth without a source is bad-request" `Quick
      (fun () ->
         check ts "code" "bad-request"
           (code_of (parse {|{"op":"synth","id":1}|})));
    Alcotest.test_case "synth with two sources is bad-request" `Quick
      (fun () ->
         check ts "code" "bad-request"
           (code_of
              (parse {|{"op":"synth","id":1,"expr":"a","circuit":"dec"}|})));
    Alcotest.test_case "server-side options are not settable" `Quick
      (fun () ->
         check ts "jobs rejected" "bad-request"
           (code_of
              (parse
                 {|{"op":"synth","id":1,"expr":"a","options":{"jobs":8}}|}));
         check ts "deadline rejected" "bad-request"
           (code_of
              (parse
                 {|{"op":"synth","id":1,"expr":"a","options":{"deadline":1}}|})));
    Alcotest.test_case "error responses carry the id back" `Quick
      (fun () ->
         let e = Engine.create Engine.default_config in
         let resp = Engine.handle e {|{"op":"frobnicate","id":42}|} in
         let j = J.parse resp in
         check tb "id preserved" true (J.member "id" j = Some (J.Num 42.));
         check tb "not ok" true (J.member "ok" j = Some (J.Bool false)));
    Alcotest.test_case "retired portfolio names are bad-request" `Quick
      (fun () ->
         check ts "portfolio solver rejected" "bad-request"
           (code_of
              (parse
                 {|{"op":"synth","id":1,"expr":"a","options":{"solver":"portfolio"}}|}));
         check ts "race_orders rejected" "bad-request"
           (code_of
              (parse
                 {|{"op":"synth","id":1,"expr":"a","options":{"race_orders":2}}|})));
  ]

(* ------------------------------------------------------------------ *)
(* Engine-level op handling *)

let engine_tests =
  [
    Alcotest.test_case "status reports engine version and protocol" `Quick
      (fun () ->
         let e = Engine.create Engine.default_config in
         let j = J.parse (Engine.handle e {|{"op":"status","id":1}|}) in
         check tb "engine string" true
           (J.member "engine" j = Some (J.Str Server.Version.engine));
         check tb "protocol" true
           (J.member "protocol" j = Some (J.Str "jsonl/1")));
    Alcotest.test_case "admission control rejects past max_queue" `Quick
      (fun () ->
         Resilience.Inject.disable ();
         let e =
           Engine.create { Engine.default_config with Engine.max_queue = 2 }
         in
         let line i =
           Printf.sprintf
             {|{"op":"synth","id":%d,"expr":"a & b%d"}|} i (i mod 5)
         in
         let responses = Engine.handle_batch e (List.init 5 line) in
         let overloaded =
           List.filter
             (fun r ->
                match J.member "error" (J.parse r) with
                | Some err ->
                  J.member "code" err = Some (J.Str "overload")
                | None -> false)
             responses
         in
         check ti "three rejected" 3 (List.length overloaded);
         check ti "rejected counter" 3 (Engine.stats e).Engine.rejected);
    Alcotest.test_case "shutdown sets the flag" `Quick (fun () ->
        let e = Engine.create Engine.default_config in
        check tb "clear before" false (Engine.wants_shutdown e);
        let resp = Engine.handle e {|{"op":"shutdown","id":1}|} in
        check tb "ok" true
          (J.member "ok" (J.parse resp) = Some (J.Bool true));
        check tb "set after" true (Engine.wants_shutdown e));
    Alcotest.test_case "infeasible capacity is a structured error" `Quick
      (fun () ->
         Resilience.Inject.disable ();
         let e = Engine.create Engine.default_config in
         let resp =
           Engine.handle e
             {|{"op":"synth","id":1,"expr":"(a&b)|(c&d)|(e&f)","options":{"max_rows":1,"max_cols":1}}|}
         in
         let j = J.parse resp in
         check tb "not ok" true (J.member "ok" j = Some (J.Bool false));
         match J.member "error" j with
         | Some err ->
           (match J.member "code" err with
            | Some (J.Str ("infeasible" | "exhausted")) -> ()
            | c ->
              Alcotest.failf "unexpected code %s"
                (match c with Some v -> J.to_string v | None -> "<none>"))
         | None -> Alcotest.fail "no error object");
    Alcotest.test_case "an expression over a variable named f solves"
      `Quick (fun () ->
          Resilience.Inject.disable ();
          let e = Engine.create Engine.default_config in
          let resp =
            Engine.handle e {|{"op":"synth","id":1,"expr":"f & a"}|}
          in
          check tb "ok" true
            (J.member "ok" (J.parse resp) = Some (J.Bool true)));
  ]

(* ------------------------------------------------------------------ *)
(* Socket-level tests: a real serving loop in a companion domain. *)

let socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "compactd-test-%d-%s.sock" (Unix.getpid ()) tag)

let with_server ?(jobs = 1) tag k =
  Resilience.Inject.disable ();
  let path = socket_path tag in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let config =
    {
      (Server.Sock.default_config ~socket_path:path) with
      Server.Sock.engine = { Engine.default_config with Engine.jobs };
    }
  in
  let server = Domain.spawn (fun () -> Server.Sock.serve config) in
  let finish () =
    (match Server.Client.connect ~retries:10 path with
     | c ->
       (try ignore (Server.Client.request c {|{"op":"shutdown"}|})
        with End_of_file -> ());
       Server.Client.close c
     | exception _ -> ());
    Domain.join server
  in
  match k path with
  | r ->
    let stats = finish () in
    r, stats
  | exception e ->
    ignore (finish ());
    raise e

let socket_tests =
  [
    Alcotest.test_case "round-trip: solve, hit, stats" `Slow (fun () ->
        let (), _stats =
          with_server "roundtrip" (fun path ->
              let c = Server.Client.connect path in
              let line = {|{"op":"synth","id":1,"expr":"(a & b) | c"}|} in
              let cold = Server.Client.request c line in
              let hot = Server.Client.request c line in
              let jc = J.parse cold and jh = J.parse hot in
              check tb "cold ok" true
                (J.member "ok" jc = Some (J.Bool true));
              check tb "cold not cached" true
                (J.member "cached" jc = Some (J.Bool false));
              check tb "hot cached" true
                (J.member "cached" jh = Some (J.Bool true));
              check tb "same key" true
                (J.member "key" jc = J.member "key" jh);
              let stats =
                J.parse (Server.Client.request c {|{"op":"stats"}|})
              in
              (match J.member "cache" stats with
               | Some cache ->
                 check tb "one hit" true
                   (J.member "hits" cache = Some (J.Num 1.))
               | None -> Alcotest.fail "no cache stats");
              Server.Client.close c)
        in
        ());
    Alcotest.test_case "oversized line gets a structured error" `Slow
      (fun () ->
         let (), _stats =
           with_server "oversized" (fun path ->
               let c = Server.Client.connect path in
               let huge =
                 {|{"op":"synth","id":1,"expr":"|}
                 ^ String.make (Protocol.max_line + 64) 'a'
                 ^ {|"}|}
               in
               let resp = J.parse (Server.Client.request c huge) in
               (match J.member "error" resp with
                | Some err ->
                  check tb "oversized code" true
                    (J.member "code" err = Some (J.Str "oversized"))
                | None -> Alcotest.fail "expected an error response");
               (* The connection survives and serves the next request. *)
               let ok =
                 J.parse
                   (Server.Client.request c
                      {|{"op":"synth","id":2,"expr":"a & b"}|})
               in
               check tb "next request ok" true
                 (J.member "ok" ok = Some (J.Bool true));
               Server.Client.close c)
         in
         ());
    Alcotest.test_case "a live socket raises Busy, a stale file is replaced"
      `Slow (fun () ->
          let (), _stats =
            with_server "busy" (fun path ->
                (* Wait until the first server's listener is actually up
                   — probing during its startup would win the bind race
                   and turn this process into the server. *)
                let ready = Server.Client.connect path in
                Server.Client.close ready;
                (* A second server on the same path must refuse rather
                   than hijack the live one's socket. *)
                let config = Server.Sock.default_config ~socket_path:path in
                (match Server.Sock.serve config with
                 | _ -> Alcotest.fail "second server bound a live socket"
                 | exception Server.Sock.Busy _ -> ()))
          in
          (* The first server has shut down; its socket file would be
             stale now — but shutdown unlinks it, so fabricate a stale
             one: bind and close without unlinking. *)
          let path = socket_path "busy" in
          check tb "drain unlinked the socket" false (Sys.file_exists path);
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.close fd;
          check tb "stale file present" true (Sys.file_exists path);
          (* No pre-unlink here: serve itself must probe the file,
             find no listener behind it, and reclaim the path. *)
          let config = Server.Sock.default_config ~socket_path:path in
          let server = Domain.spawn (fun () -> Server.Sock.serve config) in
          let c = Server.Client.connect path in
          let r =
            J.parse
              (Server.Client.request c {|{"op":"synth","id":1,"expr":"a & b"}|})
          in
          check tb "serving on the reclaimed path" true
            (J.member "ok" r = Some (J.Bool true));
          (try ignore (Server.Client.request c {|{"op":"shutdown"}|} : string)
           with End_of_file -> ());
          Server.Client.close c;
          ignore (Domain.join server : Engine.stats));
    Alcotest.test_case "client disconnect mid-request" `Slow (fun () ->
        let (), stats =
          with_server "disconnect" (fun path ->
              (* Wait until the listener is up, then immediately hang
                 up — a connection that never says anything. *)
              let ready = Server.Client.connect path in
              Server.Client.close ready;
              (* Half a request — no terminating newline — then vanish. *)
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX path);
              let partial = Bytes.of_string {|{"op":"synth","id":1,"ex|} in
              ignore (Unix.write fd partial 0 (Bytes.length partial));
              (* Give the serving loop a chance to read the fragment
                 before the EOF lands. *)
              Unix.sleepf 0.05;
              Unix.close fd;
              (* A full request whose response has no reader. *)
              let c2 = Server.Client.connect path in
              Server.Client.send c2
                {|{"op":"synth","id":2,"expr":"a & b & c"}|};
              Server.Client.close c2;
              (* The server must still answer a healthy client. *)
              let c3 = Server.Client.connect path in
              let resp =
                J.parse
                  (Server.Client.request c3
                     {|{"op":"synth","id":3,"expr":"(a ^ b) & c"}|})
              in
              check tb "healthy client served" true
                (J.member "ok" resp = Some (J.Bool true));
              Server.Client.close c3)
        in
        check tb "server processed requests" true
          (stats.Engine.served >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Durable cache: engine-level recovery round-trip (PR-8). *)

let persist_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "compactd-test-persist-%d-%s" (Unix.getpid ()) tag)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
         try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  dir

(* The only legitimate byte difference across a recovery: the hit flag. *)
let uncached s =
  let sub = {|"cached":true|} and by = {|"cached":false|} in
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else find (i + 1)
  in
  find 0

let persistence_tests =
  [
    Alcotest.test_case "engine recovers its cache across a close" `Quick
      (fun () ->
         Resilience.Inject.disable ();
         let dir = persist_dir "roundtrip" in
         let config =
           { Engine.default_config with Engine.cache_dir = Some dir }
         in
         let lines =
           [
             {|{"op":"synth","id":1,"expr":"(a & b) | ~c"}|};
             {|{"op":"synth","id":2,"expr":"(a ^ c) & (b | d)"}|};
           ]
         in
         let e1 = Engine.create config in
         let before = List.map (Engine.handle e1) lines in
         Engine.close e1;
         let e2 = Engine.create config in
         check ti "both entries recovered" 2 (Engine.stats e2).Engine.recovered;
         check ti "nothing dropped" 0 (Engine.stats e2).Engine.dropped;
         let after = List.map (Engine.handle e2) lines in
         List.iter2
           (fun b a ->
              check tb "recovered entry serves as a hit" true
                (J.member "cached" (J.parse a) = Some (J.Bool true));
              check ts "byte-identical modulo the hit flag" b (uncached a))
           before after;
         Engine.close e2);
    Alcotest.test_case "a cold engine without cache_dir reports no persist"
      `Quick (fun () ->
          Resilience.Inject.disable ();
          let e = Engine.create Engine.default_config in
          let stats = Engine.handle e {|{"op":"stats","id":1}|} in
          check tb "no persist object" true
            (J.member "persist" (J.parse stats) = None));
    Alcotest.test_case "stats expose the persist counters" `Quick (fun () ->
        Resilience.Inject.disable ();
        let dir = persist_dir "stats" in
        let e =
          Engine.create
            { Engine.default_config with Engine.cache_dir = Some dir }
        in
        ignore (Engine.handle e {|{"op":"synth","id":1,"expr":"a & b"}|});
        let j = J.parse (Engine.handle e {|{"op":"stats","id":2}|}) in
        (match J.member "persist" j with
         | Some p ->
           check tb "recovered field" true (J.member "recovered" p <> None);
           check tb "journal grew past its magic" true
             (match J.member "journal_bytes" p with
              | Some (J.Num n) ->
                n > float_of_int (String.length Server.Persist.journal_magic)
              | _ -> false)
         | None -> Alcotest.fail "no persist stats with cache_dir set");
        Engine.close e);
  ]

(* ------------------------------------------------------------------ *)
(* Client resilience plumbing: the retry-after wire format and the
   seeded backoff schedule (pure pieces; the full replay behaviour is
   covered end-to-end by the @server-restart battery). *)

let resilience_tests =
  [
    Alcotest.test_case "retry-after golden" `Quick (fun () ->
        check ts "wire format"
          {|{"id":7,"ok":false,"error":{"code":"retry-after","message":"busy","retry_after_s":0.25}}|}
          (Protocol.retry_after_response ~id:(J.Num 7.) ~after_s:0.25
             ~message:"busy"));
    Alcotest.test_case "retry_after_hint parses the hint" `Quick (fun () ->
        (match
           Protocol.retry_after_hint
             (Protocol.retry_after_response ~id:J.Null ~after_s:0.5
                ~message:"drain")
         with
         | Some s -> check (Alcotest.float 1e-9) "hint" 0.5 s
         | None -> Alcotest.fail "hint not parsed");
        check tb "ok responses carry no hint" true
          (Protocol.retry_after_hint
             (Protocol.ok_response ~id:J.Null [])
           = None);
        check tb "other errors carry no hint" true
          (Protocol.retry_after_hint
             (Protocol.error_response
                {
                  Protocol.err_id = J.Null;
                  code = Protocol.Overload;
                  message = "full";
                })
           = None));
    Alcotest.test_case "backoff is deterministic, capped and jittered"
      `Quick (fun () ->
          let d k = Server.Client.backoff_delay ~seed:9 ~base:0.005 ~cap:0.1 k in
          List.iter
            (fun k ->
               check (Alcotest.float 1e-12)
                 (Printf.sprintf "attempt %d replays" k)
                 (d k) (d k))
            [ 0; 1; 5; 40 ];
          List.iter
            (fun k ->
               let v = d k in
               check tb "within the cap" true (v <= 0.1);
               check tb "positive" true (v > 0.);
               (* Jitter scales into [0.5, 1.0] of the capped value. *)
               let raw = Float.min 0.1 (0.005 *. (2. ** float_of_int k)) in
               check tb "above half the raw delay" true (v >= (0.5 *. raw)))
            [ 0; 1; 2; 3; 10; 63 ];
          (* Different seeds decorrelate the jitter draw. *)
          let a =
            Server.Client.backoff_delay ~seed:1 ~base:0.005 ~cap:0.1 6
          in
          let b =
            Server.Client.backoff_delay ~seed:2 ~base:0.005 ~cap:0.1 6
          in
          check tb "seeds differ" true (a <> b));
    Alcotest.test_case "recv splits lines at any read boundary" `Quick
      (fun () ->
         let mine, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         let c = Server.Client.of_fd mine in
         Fun.protect
           ~finally:(fun () ->
             Server.Client.close c;
             try Unix.close peer with Unix.Unix_error _ -> ())
           (fun () ->
              let write s =
                let b = Bytes.of_string s in
                let rec go off =
                  if off < Bytes.length b then
                    go (off + Unix.write peer b off (Bytes.length b - off))
                in
                go 0
              in
              (* Longer than the client's 8 KB read chunk, then two lines
                 that arrive with it. *)
              let long = String.init 20_000 (fun i -> Char.chr (97 + (i mod 26))) in
              write (long ^ "\nsecond\nthird\n");
              check ts "long line" long (Server.Client.recv c);
              check ts "second line" "second" (Server.Client.recv c);
              check ts "third line" "third" (Server.Client.recv c);
              (* A line split across reads, after a line that shares the
                 first read with its head. *)
              write "fourth\npar";
              check ts "fourth line" "fourth" (Server.Client.recv c);
              write "tial\n";
              check ts "split line" "partial" (Server.Client.recv c);
              write "\n";
              check ts "empty line" "" (Server.Client.recv c);
              (* A stale response ahead of the wanted one is skipped. *)
              write {|{"id":1,"ok":true}|};
              write "\n";
              write {|{"id":2,"ok":true}|};
              write "\n";
              let req = {|{"op":"status","id":2}|} in
              check ts "stale line skipped" {|{"id":2,"ok":true}|}
                (Server.Client.request_idempotent c req);
              let sent = Bytes.create 64 in
              let n = Unix.read peer sent 0 64 in
              check ts "request sent once" (req ^ "\n") (Bytes.sub_string sent 0 n);
              Unix.close peer;
              check tb "end of file" true
                (match Server.Client.recv c with
                 | _ -> false
                 | exception End_of_file -> true)));
  ]

(* ------------------------------------------------------------------ *)
(* Reentrancy regression: the serving core assumes [Pipeline.synthesize]
   has no mutable global state, so two back-to-back in-process runs must
   produce the same bytes. *)

let reentrancy_tests =
  [
    Alcotest.test_case "back-to-back syntheses are byte-identical" `Quick
      (fun () ->
         Resilience.Inject.disable ();
         let e =
           Logic.Parse.expr "((a & b) | (b & c) | (a & c)) ^ (~a & d)"
         in
         let nl =
           Logic.Netlist.create ~name:"maj" ~inputs:(Logic.Expr.vars e)
             ~outputs:[ "f" ] [ Logic.Netlist.n_expr "f" e ]
         in
         let run () =
           let r = Compact.Pipeline.synthesize ~options:defaults nl in
           (* The canonical serialization: design plus the report minus
              its wall-clock fields, which legitimately differ run to
              run. *)
           Protocol.synth_payload ~key:"maj" ~design:r.Compact.Pipeline.design
             ~report:r.Compact.Pipeline.report
         in
         let first = run () in
         let second = run () in
         check ts "identical design and report" first second);
    Alcotest.test_case "repeated syntheses do not re-register counters"
      `Quick (fun () ->
          Resilience.Inject.disable ();
          let saved = Obs.enabled () in
          Obs.set_enabled true;
          Obs.reset ();
          let e = Engine.create Engine.default_config in
          let line = {|{"op":"synth","id":1,"expr":"(a | b) & ~c"}|} in
          ignore (Engine.handle e line : string);
          ignore (Engine.handle e line : string);
          let snap = Obs.drain () in
          Obs.set_enabled saved;
          let names = List.map fst snap.Obs.counters in
          check ti "counter names unique across repeated runs"
            (List.length names)
            (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "interleaved engines do not interfere" `Quick
      (fun () ->
         Resilience.Inject.disable ();
         let line = {|{"op":"synth","id":1,"expr":"(a & ~b) | (b & c)"}|} in
         let e1 = Engine.create Engine.default_config in
         let e2 = Engine.create Engine.default_config in
         let r1 = Engine.handle e1 line in
         let r2 = Engine.handle e2 line in
         let r1' = Engine.handle e1 line in
         check ts "cold responses identical across engines" r1 r2;
         check tb "second engine's cache untouched by the first" true
           ((Engine.stats e2).Engine.cache.Server.Cache.entries = 1);
         check tb "hit on the first engine" true
           (J.member "cached" (J.parse r1') = Some (J.Bool true)));
  ]

(* ------------------------------------------------------------------ *)
(* The payload writer against the tree rendering it replaced *)

module Design = Crossbar.Design
module Literal = Crossbar.Literal

(* Names that need every kind of escape: quote, backslash, control
   characters, and UTF-8 that must pass through untouched. *)
let awkward_names =
  [ "f"; "x12"; ""; "a\"b"; "back\\slash"; "ctl\001\031\127";
    "tab\tnl\ncr\r"; "\xc3\xbc\xe2\x9c\x93" ]

let small_report =
  lazy
    (Compact.Pipeline.synthesize
       (Logic.Netlist.of_expr ~name:"a\"\\b" (Logic.Parse.expr "a & ~b")))
      .Compact.Pipeline.report

let writer_matches_tree ~key design =
  let report = Lazy.force small_report in
  let written = Protocol.synth_payload ~key ~design ~report in
  written = Tree_payload.synth_payload ~key ~design ~report

let wire_gen ~rows ~cols =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> Design.Row i) (int_bound (rows - 1));
        map (fun j -> Design.Col j) (int_bound (cols - 1)) ])

let literal_gen =
  QCheck2.Gen.(
    frequency
      [ 1, pure Literal.Off; 2, pure Literal.On;
        4, map (fun v -> Literal.Pos v) (oneofl awkward_names);
        4, map (fun v -> Literal.Neg v) (oneofl awkward_names) ])

(* Up to 40 junction writes, [Off] ones erasing, on arrays of one to
   20,000 wires a side. *)
let design_gen =
  QCheck2.Gen.(
    let* rows = oneof [ int_range 1 6; int_range 1 20_000 ] in
    let* cols = oneof [ int_range 1 6; int_range 1 20_000 ] in
    let* input = wire_gen ~rows ~cols in
    let* outputs =
      list_size (int_bound 3) (pair (oneofl awkward_names) (wire_gen ~rows ~cols))
    in
    let* writes =
      list_size (int_bound 40)
        (triple (int_bound (rows - 1)) (int_bound (cols - 1)) literal_gen)
    in
    let* key = oneofl awkward_names in
    return (key, (rows, cols, input, outputs), writes))

let payload_tests =
  [
    qcheck_case "the writer matches the tree rendering on random designs"
      design_gen (fun (key, (rows, cols, input, outputs), writes) ->
        let d =
          Design.build ~rows ~cols ~input ~outputs (fun set ->
              List.iter (fun (row, col, l) -> set ~row ~col l) writes)
        in
        writer_matches_tree ~key d);
    Alcotest.test_case "zero cells and a constant-0 output" `Quick (fun () ->
        check tb "no cells" true
          (writer_matches_tree ~key:"empty"
             (Design.build ~rows:1 ~cols:1 ~input:(Design.Col 0)
                ~outputs:[ "z\"", Design.Row 0 ] (fun _ -> ())));
        let nl =
          Logic.Netlist.create ~name:"k" ~inputs:[ "a"; "b"; "c" ]
            ~outputs:[ "f"; "zero" ]
            [ Logic.Netlist.n_expr "f" (Logic.Parse.expr "(a & b) | ~c");
              Logic.Netlist.n_expr "zero" (Logic.Parse.expr "a & ~a") ]
        in
        let r = Compact.Pipeline.synthesize ~options:defaults nl in
        check tb "synthesized" true
          (writer_matches_tree ~key:"k" r.Compact.Pipeline.design));
  ]

let () =
  Alcotest.run "server"
    [
      "protocol", parse_tests;
      "payload", payload_tests;
      "engine", engine_tests;
      "persistence", persistence_tests;
      "resilience", resilience_tests;
      "socket", socket_tests;
      "reentrancy", reentrancy_tests;
    ]
