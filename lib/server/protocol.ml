module J = Obs.Json

type source = Expr of string | Circuit of string | Blif of string

type synth = {
  id : J.t;
  source : source;
  options : Compact.Pipeline.options;
}

type request =
  | Synth of synth
  | Status of J.t
  | Stats of J.t
  | Metrics of J.t
  | Health of J.t
  | Shutdown of J.t

type error_code =
  | Parse
  | Unknown_op
  | Bad_request
  | Oversized
  | Overload
  | Retry_after
  | Exhausted
  | Infeasible
  | Size_limit
  | Internal

let error_code_name = function
  | Parse -> "parse"
  | Unknown_op -> "unknown-op"
  | Bad_request -> "bad-request"
  | Oversized -> "oversized"
  | Overload -> "overload"
  | Retry_after -> "retry-after"
  | Exhausted -> "exhausted"
  | Infeasible -> "infeasible"
  | Size_limit -> "size-limit"
  | Internal -> "internal"

type error = { err_id : J.t; code : error_code; message : string }

let max_line = 65536

let request_id = function
  | Synth { id; _ } | Status id | Stats id | Metrics id | Health id
  | Shutdown id ->
    id

(* ------------------------------------------------------------------ *)
(* Request parsing *)

exception Bad of string

let parse_options ~defaults json =
  match json with
  | None -> defaults
  | Some (J.Obj fields) ->
    List.fold_left
      (fun (o : Compact.Pipeline.options) (k, v) ->
         match k, v with
         | "gamma", J.Num g -> { o with Compact.Pipeline.gamma = g }
         | "solver", J.Str s ->
           (match Compact.Pipeline.solver_of_name s with
            | Some solver -> { o with Compact.Pipeline.solver = solver }
            | None -> raise (Bad (Printf.sprintf "unknown solver %S" s)))
         | "alignment", J.Bool b -> { o with Compact.Pipeline.alignment = b }
         | "time_limit", J.Num t when t > 0. ->
           { o with Compact.Pipeline.time_limit = t }
         | "bdd_node_limit", J.Num n when n >= 1. ->
           { o with Compact.Pipeline.bdd_node_limit = int_of_float n }
         | "max_rows", J.Num n when n >= 1. ->
           { o with Compact.Pipeline.max_rows = Some (int_of_float n) }
         | "max_rows", J.Null -> { o with Compact.Pipeline.max_rows = None }
         | "max_cols", J.Num n when n >= 1. ->
           { o with Compact.Pipeline.max_cols = Some (int_of_float n) }
         | "max_cols", J.Null -> { o with Compact.Pipeline.max_cols = None }
         | "race_orders", J.Num n when n >= 1. ->
           { o with Compact.Pipeline.race_orders = int_of_float n }
         | ("gamma" | "solver" | "alignment" | "time_limit"
           | "bdd_node_limit" | "max_rows" | "max_cols" | "race_orders"), _ ->
           raise (Bad (Printf.sprintf "bad value for option %S" k))
         | k, _ ->
           (* [jobs] and [deadline] deliberately land here: both are
              server policy, not request payload. *)
           raise (Bad (Printf.sprintf "unknown option %S" k)))
      defaults fields
  | Some _ -> raise (Bad "\"options\" must be an object")

let parse_source fields =
  let pick k wrap =
    Option.map (function
        | J.Str s -> wrap s
        | _ -> raise (Bad (Printf.sprintf "%S must be a string" k)))
      (List.assoc_opt k fields)
  in
  match
    List.filter_map Fun.id
      [ pick "expr" (fun s -> Expr s);
        pick "circuit" (fun s -> Circuit s);
        pick "blif" (fun s -> Blif s) ]
  with
  | [ src ] -> src
  | [] -> raise (Bad "one of \"expr\", \"circuit\", \"blif\" is required")
  | _ -> raise (Bad "give exactly one of \"expr\", \"circuit\", \"blif\"")

let parse_request ~defaults line =
  if String.length line > max_line then
    Error
      {
        err_id = J.Null;
        code = Oversized;
        message =
          Printf.sprintf "request line of %d bytes exceeds the %d-byte limit"
            (String.length line) max_line;
      }
  else
    match J.parse line with
    | exception J.Parse_error msg ->
      Error { err_id = J.Null; code = Parse; message = msg }
    | J.Obj fields as obj ->
      let id = Option.value ~default:J.Null (J.member "id" obj) in
      (match List.assoc_opt "op" fields with
       | Some (J.Str "synth") ->
         (match
            let source = parse_source fields in
            let options =
              parse_options ~defaults (List.assoc_opt "options" fields)
            in
            Synth { id; source; options }
          with
          | req -> Ok req
          | exception Bad msg ->
            Error { err_id = id; code = Bad_request; message = msg })
       | Some (J.Str "status") -> Ok (Status id)
       | Some (J.Str "stats") -> Ok (Stats id)
       | Some (J.Str "metrics") -> Ok (Metrics id)
       | Some (J.Str "health") -> Ok (Health id)
       | Some (J.Str "shutdown") -> Ok (Shutdown id)
       | Some (J.Str op) ->
         Error
           {
             err_id = id;
             code = Unknown_op;
             message = Printf.sprintf "unknown op %S" op;
           }
       | Some _ | None ->
         Error
           {
             err_id = id;
             code = Bad_request;
             message = "missing string field \"op\"";
           })
    | _ ->
      Error
        {
          err_id = J.Null;
          code = Parse;
          message = "request must be a JSON object";
        }

(* ------------------------------------------------------------------ *)
(* Canonical serialization *)

(* Non-negative integers only: rows, columns and wire indices. *)
let rec add_int buf i =
  if i >= 10 then add_int buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_wire buf w =
  let tag, i =
    match w with
    | Crossbar.Design.Row i -> 'r', i
    | Crossbar.Design.Col j -> 'c', j
  in
  Buffer.add_char buf '"';
  Buffer.add_char buf tag;
  add_int buf i;
  Buffer.add_char buf '"'

let add_json_string buf s = Buffer.add_string buf (J.to_string (J.Str s))

(* {"rows":R,"cols":C,"input":W,"outputs":[[O,W],...],"cells":[[r,c,L],...]}
   with wires as "r4"/"c2" and cells in iter_programmed's row-major
   order, the canonical one. *)
let add_design buf d =
  Buffer.add_string buf "{\"rows\":";
  add_int buf (Crossbar.Design.rows d);
  Buffer.add_string buf ",\"cols\":";
  add_int buf (Crossbar.Design.cols d);
  Buffer.add_string buf ",\"input\":";
  add_wire buf (Crossbar.Design.input d);
  Buffer.add_string buf ",\"outputs\":[";
  List.iteri
    (fun i (name, w) ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_char buf '[';
       add_json_string buf name;
       Buffer.add_char buf ',';
       add_wire buf w;
       Buffer.add_char buf ']')
    (Crossbar.Design.outputs d);
  Buffer.add_string buf "],\"cells\":[";
  (* Each code's JSON text, rendered once. *)
  let vars = Crossbar.Design.vars d in
  let texts =
    Array.init
      ((2 * Array.length vars) + 1)
      (fun c ->
         J.to_string
           (J.Str (Crossbar.Literal.to_string (Crossbar.Literal.of_code vars c))))
  in
  let first = ref true in
  Crossbar.Design.iter_coded d (fun r c code ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      add_int buf r;
      Buffer.add_char buf ',';
      add_int buf c;
      Buffer.add_char buf ',';
      Buffer.add_string buf texts.(code);
      Buffer.add_char buf ']');
  Buffer.add_string buf "]}"

(* Wall-clock fields (synthesis_time, label_time) are deliberately
   omitted: the payload must be a deterministic function of the cache
   key so cached bytes compare equal to a cold solve's. *)
let report_json (r : Compact.Report.t) =
  J.Obj
    [
      "circuit", J.Str r.Compact.Report.circuit;
      "bdd_nodes", J.Num (float_of_int r.Compact.Report.bdd_nodes);
      "bdd_edges", J.Num (float_of_int r.Compact.Report.bdd_edges);
      "rows", J.Num (float_of_int r.Compact.Report.rows);
      "cols", J.Num (float_of_int r.Compact.Report.cols);
      "semiperimeter", J.Num (float_of_int r.Compact.Report.semiperimeter);
      "vh_count", J.Num (float_of_int r.Compact.Report.vh_count);
      "method", J.Str r.Compact.Report.method_name;
      "optimal", J.Bool r.Compact.Report.optimal;
      "gap", J.Num r.Compact.Report.gap;
      ( "solver_path",
        J.Arr (List.map (fun s -> J.Str s) r.Compact.Report.solver_path) );
      "deadline_hit", J.Bool r.Compact.Report.deadline_hit;
    ]

let synth_payload ~key ~design ~report =
  (* About 19 bytes a cell on the Table-I designs. *)
  let buf =
    Buffer.create
      (512 + String.length key
       + (24 * Crossbar.Design.num_programmed design)
       + (24 * List.length (Crossbar.Design.outputs design)))
  in
  Buffer.add_string buf "\"key\":";
  add_json_string buf key;
  Buffer.add_string buf ",\"design\":";
  add_design buf design;
  Buffer.add_string buf ",\"report\":";
  Buffer.add_string buf (J.to_string (report_json report));
  Buffer.contents buf

let synth_response ~id ~cached ~coalesced ~payload =
  Printf.sprintf "{\"id\":%s,\"ok\":true,\"cached\":%b,\"coalesced\":%b,%s}"
    (J.to_string id) cached coalesced payload

let ok_response ~id fields =
  J.to_string (J.Obj (("id", id) :: ("ok", J.Bool true) :: fields))

(* A shed request is not a failure of the request, it is a failure of
   the moment: the structured [retry-after] error carries a machine-
   readable delay hint so a retrying client can replay the identical
   request (same id) once the server has drained or restarted. *)
let retry_after_response ~id ~after_s ~message =
  J.to_string
    (J.Obj
       [
         "id", id;
         "ok", J.Bool false;
         ( "error",
           J.Obj
             [
               "code", J.Str (error_code_name Retry_after);
               "message", J.Str message;
               "retry_after_s", J.Num after_s;
             ] );
       ])

let retry_after_hint line =
  match J.parse line with
  | exception J.Parse_error _ -> None
  | j ->
    (match J.member "error" j with
     | Some err when J.member "code" err = Some (J.Str "retry-after") ->
       (match J.member "retry_after_s" err with
        | Some (J.Num s) when s >= 0. -> Some s
        | _ -> Some 0.)
     | _ -> None)

let error_response { err_id; code; message } =
  J.to_string
    (J.Obj
       [
         "id", err_id;
         "ok", J.Bool false;
         ( "error",
           J.Obj
             [
               "code", J.Str (error_code_name code);
               "message", J.Str message;
             ] );
       ])

let parse_response = J.parse

(* Wall-clock isolation for metrics/health replies, mirroring how
   [report_json] omits timing fields: latency ("ms"-unit) histogram
   buckets and quantiles are timing-dependent, gauges are last-write
   instantaneous values, and uptime is wall-clock — all are zeroed so
   what remains (counter values, histogram observation counts,
   size-unit bucket shapes, every metric name) must be byte-identical
   across jobs counts. *)
let normalize_metrics line =
  match J.parse line with
  | exception J.Parse_error _ -> line
  | j ->
    let rec norm = function
      | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match k, v with
               | "uptime_s", _ -> (k, J.Num 0.)
               | "gauges", J.Obj gs ->
                 (k, J.Obj (List.map (fun (gk, _) -> (gk, J.Num 0.)) gs))
               | "hists", J.Arr hs -> (k, J.Arr (List.map norm_hist hs))
               | _ -> (k, norm v))
             fields)
      | J.Arr items -> J.Arr (List.map norm items)
      | v -> v
    and norm_hist h =
      match h with
      | J.Obj fields when J.member "unit" h = Some (J.Str "ms") ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match k with
               | "buckets" -> (k, J.Arr [])
               | "p50" | "p90" | "p99" | "max" -> (k, J.Num 0.)
               | _ -> (k, v))
             fields)
      | h -> h
    in
    J.to_string (norm j)
