(** The [compactd] wire protocol: line-oriented JSONL.

    Each request is one JSON object on one LF-terminated line; each
    response is one JSON object on one line, carrying the request's
    ["id"] back verbatim (or [null] when the request was unparsable).

    Grammar (all requests; fields marked ? are optional):

    {v
    {"op":"synth", "id":J?, "expr":S | "circuit":S | "blif":S,
     "options":{"gamma":N?, "solver":S?, "alignment":B?,
                "time_limit":N?, "bdd_node_limit":N?,
                "max_rows":N?, "max_cols":N?}?}
    {"op":"status", "id":J?}
    {"op":"stats",  "id":J?}
    {"op":"metrics","id":J?}
    {"op":"health", "id":J?}
    {"op":"shutdown","id":J?}
    v}

    Responses:

    {v
    {"id":J, "ok":true, "cached":B, "coalesced":B, "key":S,
     "design":{...}, "report":{...}}                        (synth)
    {"id":J, "ok":true, ...}                                (others)
    {"id":J, "ok":false,
     "error":{"code":S, "message":S}}                       (failure)
    v}

    The design object is canonical — wires render as ["r4"]/["c2"],
    cells are sorted by (row, col) — and the report omits wall-clock
    fields, so the whole synth payload is a deterministic function of
    (function, options, engine version). That is what makes cached
    bytes safe to serve and lets the test battery compare responses
    across jobs counts byte for byte. *)

type source =
  | Expr of string  (** a Boolean expression, [Logic.Parse] syntax *)
  | Circuit of string  (** a built-in [Circuits.Suite] benchmark name *)
  | Blif of string  (** an inline BLIF netlist *)

type synth = {
  id : Obs.Json.t;
  source : source;
  options : Compact.Pipeline.options;
}

type request =
  | Synth of synth
  | Status of Obs.Json.t
  | Stats of Obs.Json.t
  | Metrics of Obs.Json.t
      (** Non-destructive dump of every registered counter, gauge and
          histogram (buckets + nearest-rank quantiles). *)
  | Health of Obs.Json.t
      (** Liveness probe: uptime, drain state, in-flight count, cache
          recovery tallies. *)
  | Shutdown of Obs.Json.t

type error_code =
  | Parse  (** the line is not a JSON object *)
  | Unknown_op
  | Bad_request  (** missing/conflicting source, bad option field … *)
  | Oversized  (** line longer than {!max_line} bytes *)
  | Overload  (** admission control rejected the request *)
  | Retry_after
      (** shed by the serving loop (queue full, or draining for
          shutdown); the error object carries a ["retry_after_s"] hint *)
  | Exhausted  (** the per-request budget ran out with no result *)
  | Infeasible  (** capacity constraints unsatisfiable *)
  | Size_limit  (** BDD node budget exceeded *)
  | Internal

val error_code_name : error_code -> string
(** Stable kebab-case wire spelling, e.g. ["bad-request"]. *)

type error = { err_id : Obs.Json.t; code : error_code; message : string }

val max_line : int
(** Longest accepted request line in bytes (65536). *)

val request_id : request -> Obs.Json.t

val parse_request :
  defaults:Compact.Pipeline.options -> string -> (request, error) result
(** Parse one line. [defaults] seeds the synth options; fields of the
    request's ["options"] object override it ([jobs]/[deadline] are
    server-side and not settable over the wire — an attempt is a
    [Bad_request]). *)

val report_json : Compact.Report.t -> Obs.Json.t

val synth_payload :
  key:string -> design:Crossbar.Design.t -> report:Compact.Report.t -> string
(** The cacheable part of a synth response:
    ["key":…, "design":…, "report":…] rendered as a JSON-object
    fragment (no braces). Deterministic per (function, options,
    engine). The design is written straight into one buffer, cell by
    cell, in the bytes {!Obs.Json.to_string} gives its tree form. *)

val synth_response :
  id:Obs.Json.t -> cached:bool -> coalesced:bool -> payload:string -> string
(** Wrap a payload into a full response line (no trailing newline). *)

val ok_response : id:Obs.Json.t -> (string * Obs.Json.t) list -> string
(** Generic success envelope with extra fields. *)

val error_response : error -> string

val retry_after_response :
  id:Obs.Json.t -> after_s:float -> message:string -> string
(** A structured shed response:
    [{"id":…,"ok":false,"error":{"code":"retry-after","message":…,
    "retry_after_s":N}}]. *)

val retry_after_hint : string -> float option
(** Client side: [Some delay] when the response line is a [retry-after]
    error (the hint clamps to 0 when absent or negative), [None] for
    every other response. *)

val parse_response : string -> Obs.Json.t
(** Client-side: parse one response line.
    @raise Obs.Json.Parse_error on garbage. *)

val normalize_metrics : string -> string
(** Zero the wall-clock-dependent parts of a [metrics]/[health] reply
    line — [uptime_s], gauge values, and the buckets/quantiles of
    "ms"-unit histograms (their observation [count]s are kept) — so
    replies are byte-comparable across jobs counts, the same isolation
    [report_json] applies by omitting timing fields.  Returns
    unparsable lines unchanged.  Idempotent. *)
