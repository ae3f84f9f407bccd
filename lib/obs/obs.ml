(* Domain-safe tracing and metrics.  See obs.mli for the contract.

   Layout: each domain lazily registers a buffer (DLS) holding a span
   stack and an event list; a global mutex guards only the registry of
   buffers and the lazily-registered metric cells, never the hot
   recording path.  [drain] walks the registry at a quiescent point and
   canonicalises the merged event list so the output is independent of
   domain interleaving. *)

let enabled_flag = Atomic.make (Sys.getenv_opt "COMPACT_TRACE" <> None)
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* The metrics plane is armed independently of tracing: a serving
   process keeps counters/gauges/histograms live (and readable without
   draining) while the span buffers stay off.  [recording] is the gate
   every metric-cell write uses. *)
let metrics_flag = Atomic.make false
let metrics_enabled () = Atomic.get metrics_flag
let set_metrics_enabled b = Atomic.set metrics_flag b
let recording () = enabled () || metrics_enabled ()

(* The flight recorder keeps spans flowing into bounded per-domain
   rings even with tracing off; [span_active] widens the span entry
   gate accordingly. *)
let recorder_flag = Atomic.make false
let recorder_enabled () = Atomic.get recorder_flag
let set_recorder_enabled b = Atomic.set recorder_flag b
let span_active () = Atomic.get enabled_flag || Atomic.get recorder_flag

module Clock = struct
  let now_ns () = Monotonic_clock.now ()
  let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
end

type event = {
  ev_path : string;
  ev_name : string;
  ev_instant : bool;
  ev_start : float;
  ev_dur : float;
  ev_domain : int;
  ev_seq : int;
  ev_attrs : (string * string) list;
}

type snapshot = {
  events : event list;
  counters : (string * float) list;
}

(* --- per-domain buffers -------------------------------------------- *)

type frame = {
  f_name : string;
  f_path : string;  (* path of the *parent*, i.e. path this span lives at *)
  f_start : float;
  f_minor : float;
  f_major : float;
  mutable f_attrs : (string * string) list;
}

type dbuf = {
  d_id : int;
  mutable d_events : event list;  (* newest first *)
  mutable d_seq : int;
  mutable d_stack : frame list;  (* innermost first *)
  mutable d_base : string;  (* context root when stack is empty *)
  (* Flight-recorder ring: bounded, allocated on first recorded event. *)
  mutable d_ring : event array;  (* [||] until first use *)
  mutable d_rpos : int;  (* next write slot *)
  mutable d_rlen : int;  (* live entries, saturates at capacity *)
}

let registry_mutex = Mutex.create ()
let registry : dbuf list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { d_id = (Domain.self () :> int);
          d_events = [];
          d_seq = 0;
          d_stack = [];
          d_base = "";
          d_ring = [||];
          d_rpos = 0;
          d_rlen = 0 }
      in
      Mutex.protect registry_mutex (fun () -> registry := b :: !registry);
      b)

let buf () = Domain.DLS.get dls_key

let join_path p n = if p = "" then n else p ^ "/" ^ n

let current_path b =
  match b.d_stack with
  | f :: _ -> join_path f.f_path f.f_name
  | [] -> b.d_base

let ring_capacity = 512

let record b ev =
  if enabled () then b.d_events <- ev :: b.d_events;
  if recorder_enabled () then begin
    if Array.length b.d_ring = 0 then b.d_ring <- Array.make ring_capacity ev;
    b.d_ring.(b.d_rpos) <- ev;
    b.d_rpos <- (b.d_rpos + 1) mod ring_capacity;
    if b.d_rlen < ring_capacity then b.d_rlen <- b.d_rlen + 1
  end

let next_seq b =
  b.d_seq <- b.d_seq + 1;
  b.d_seq

let fmt_words w = Printf.sprintf "%.0f" w

(* --- spans --------------------------------------------------------- *)

module Span = struct
  let finish b fr =
    (* Pop down to (and including) [fr]; inner frames abandoned by a
       non-local exit are dropped without being recorded. *)
    let rec pop = function
      | top :: rest when top == fr -> b.d_stack <- rest
      | _ :: rest -> pop rest
      | [] -> b.d_stack <- []
    in
    pop b.d_stack;
    let t1 = Clock.now () in
    let attrs =
      (* GC deltas exist only when full tracing captured a baseline:
         [Gc.quick_stat] merges counters across live domains and costs
         whole microseconds once a solver pool is up, so the always-on
         recorder path must never touch it. *)
      if Float.is_nan fr.f_minor then fr.f_attrs
      else
        let q = Gc.quick_stat () in
        fr.f_attrs
        @ [ "gc.minor_words", fmt_words (q.Gc.minor_words -. fr.f_minor);
            "gc.major_words", fmt_words (q.Gc.major_words -. fr.f_major) ]
    in
    record b
      { ev_path = fr.f_path;
        ev_name = fr.f_name;
        ev_instant = false;
        ev_start = fr.f_start;
        ev_dur = t1 -. fr.f_start;
        ev_domain = b.d_id;
        ev_seq = next_seq b;
        ev_attrs = attrs }

  let with_ ?(attrs = []) name f =
    if not (span_active ()) then f ()
    else begin
      let b = buf () in
      let minor, major =
        if enabled () then
          let q = Gc.quick_stat () in
          q.Gc.minor_words, q.Gc.major_words
        else (nan, nan)
      in
      let fr =
        { f_name = name;
          f_path = current_path b;
          f_start = Clock.now ();
          f_minor = minor;
          f_major = major;
          f_attrs = attrs }
      in
      b.d_stack <- fr :: b.d_stack;
      match f () with
      | v ->
        finish b fr;
        v
      | exception e ->
        finish b fr;
        raise e
    end

  let add_attr k v =
    if span_active () then begin
      let b = buf () in
      match b.d_stack with
      | fr :: _ -> fr.f_attrs <- fr.f_attrs @ [ (k, v) ]
      | [] -> ()
    end

  let event ?(attrs = []) name =
    if span_active () then begin
      let b = buf () in
      record b
        { ev_path = current_path b;
          ev_name = name;
          ev_instant = true;
          ev_start = Clock.now ();
          ev_dur = 0.;
          ev_domain = b.d_id;
          ev_seq = next_seq b;
          ev_attrs = attrs }
    end
end

type context = string

let context () = if span_active () then current_path (buf ()) else ""

let with_context ctx f =
  if not (span_active ()) then f ()
  else begin
    let b = buf () in
    let saved_stack = b.d_stack and saved_base = b.d_base in
    b.d_stack <- [];
    b.d_base <- ctx;
    Fun.protect
      ~finally:(fun () ->
        b.d_stack <- saved_stack;
        b.d_base <- saved_base)
      f
  end

(* --- metrics ------------------------------------------------------- *)

type counter = { c_name : string; c_cell : int Atomic.t; mutable c_reg : bool }
type gauge = { g_name : string; g_cell : float Atomic.t; mutable g_reg : bool }

(* Log-bucketed histogram: bucket 0 holds values <= h_lo (and NaN),
   the last bucket is the overflow, and bucket i (0 < i < n-1) holds
   values in (lo * 2^((i-1)/sub), lo * 2^(i/sub)].  One atomic cell per
   bucket keeps observation lock-free from any domain and makes the
   merged export an integer sum — byte-deterministic at any -j. *)
type hist = {
  h_name : string;
  h_unit : string;  (* "ms", "count", ... *)
  h_lo : float;
  h_sub : int;  (* sub-buckets per octave *)
  h_cells : int Atomic.t array;
  mutable h_reg : bool;
}

type metric = C of counter | G of gauge | H of hist

let metrics : metric list ref = ref []

module Counter = struct
  type t = counter

  let make name = { c_name = name; c_cell = Atomic.make 0; c_reg = false }

  let register c =
    Mutex.protect registry_mutex (fun () ->
        if not c.c_reg then begin
          metrics := C c :: !metrics;
          c.c_reg <- true
        end)

  let add c n =
    if recording () then begin
      if not c.c_reg then register c;
      ignore (Atomic.fetch_and_add c.c_cell n)
    end

  let incr c = add c 1
end

module Gauge = struct
  type t = gauge

  let make name = { g_name = name; g_cell = Atomic.make 0.; g_reg = false }

  let register g =
    Mutex.protect registry_mutex (fun () ->
        if not g.g_reg then begin
          metrics := G g :: !metrics;
          g.g_reg <- true
        end)

  let set g v =
    if recording () then begin
      if not g.g_reg then register g;
      Atomic.set g.g_cell v
    end
end

module Hist = struct
  type t = hist

  let make ?(lo = 0.001) ?(sub = 4) ?(octaves = 28) ~unit_ name =
    let n = (octaves * sub) + 2 in
    { h_name = name;
      h_unit = unit_;
      h_lo = lo;
      h_sub = sub;
      h_cells = Array.init n (fun _ -> Atomic.make 0);
      h_reg = false }

  (* Latency in milliseconds: 1 us .. ~268 s at 4 buckets/octave. *)
  let make_ms name = make ~unit_:"ms" name

  (* Small integer sizes: powers of two 1 .. 2^20. *)
  let make_count name = make ~lo:1. ~sub:1 ~octaves:20 ~unit_:"count" name

  let register h =
    Mutex.protect registry_mutex (fun () ->
        if not h.h_reg then begin
          metrics := H h :: !metrics;
          h.h_reg <- true
        end)

  let bucket_of h v =
    let n = Array.length h.h_cells in
    if Float.is_nan v || v <= h.h_lo then 0
    else
      let i =
        1 + int_of_float (Float.log2 (v /. h.h_lo) *. float_of_int h.h_sub)
      in
      if i < 1 then 1 else if i >= n then n - 1 else i

  let observe h v =
    if recording () then begin
      if not h.h_reg then register h;
      ignore (Atomic.fetch_and_add h.h_cells.(bucket_of h v) 1)
    end

  (* Time [f] and record its duration in milliseconds. *)
  let time h f =
    if not (recording ()) then f ()
    else begin
      let t0 = Clock.now () in
      match f () with
      | v ->
        observe h ((Clock.now () -. t0) *. 1e3);
        v
      | exception e ->
        observe h ((Clock.now () -. t0) *. 1e3);
        raise e
    end

  let counts h = Array.map Atomic.get h.h_cells

  let total counts = Array.fold_left ( + ) 0 counts

  (* Upper bound of bucket [i]; the overflow bucket reports its lower
     bound (its upper bound is infinite). *)
  let bound h i =
    let n = Array.length h.h_cells in
    if i = 0 then h.h_lo
    else
      let i = if i >= n - 1 then n - 2 else i in
      h.h_lo *. Float.pow 2. (float_of_int i /. float_of_int h.h_sub)

  (* Nearest-rank quantile over bucket upper bounds: the value below
     which at least ceil(p/100 * total) observations fall.  Returns 0.
     on an empty histogram. *)
  let quantile_of_counts h counts p =
    let n = total counts in
    if n = 0 then 0.
    else begin
      let rank =
        max 1 (int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n)))
      in
      let i = ref 0 and seen = ref 0 in
      (try
         Array.iteri
           (fun j c ->
             seen := !seen + c;
             if !seen >= rank then begin
               i := j;
               raise Exit
             end)
           counts
       with Exit -> ());
      bound h !i
    end

  let quantile h p = quantile_of_counts h (counts h) p

  (* Exact nearest-rank percentile over raw samples (for client-side
     report math): empty input yields 0., a single sample is returned
     for every p, and p is clamped to [0, 100]. *)
  let percentile_exact samples p =
    let n = Array.length samples in
    if n = 0 then 0.
    else begin
      let a = Array.copy samples in
      Array.sort compare a;
      let p = max 0 (min 100 p) in
      let rank =
        max 1 (int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n)))
      in
      a.(min (n - 1) (rank - 1))
    end
end

(* --- drain --------------------------------------------------------- *)

let is_gc_attr k = String.length k >= 3 && String.sub k 0 3 = "gc."

let sort_key e =
  ( e.ev_path,
    e.ev_name,
    e.ev_instant,
    List.filter (fun (k, _) -> not (is_gc_attr k)) e.ev_attrs )

let canonical evs =
  List.stable_sort (fun a b -> compare (sort_key a) (sort_key b)) evs

let drain () =
  Mutex.protect registry_mutex (fun () ->
      let events =
        List.concat_map
          (fun b ->
            let evs = List.rev b.d_events in
            b.d_events <- [];
            b.d_seq <- 0;
            b.d_rpos <- 0;
            b.d_rlen <- 0;
            evs)
          (List.rev !registry)
      in
      let counters =
        List.filter_map
          (function
            | C c ->
              let v = Atomic.get c.c_cell in
              Atomic.set c.c_cell 0;
              c.c_reg <- false;
              Some (c.c_name, float_of_int v)
            | G g ->
              let v = Atomic.get g.g_cell in
              Atomic.set g.g_cell 0.;
              g.g_reg <- false;
              Some (g.g_name, v)
            | H h ->
              Array.iter (fun cell -> Atomic.set cell 0) h.h_cells;
              h.h_reg <- false;
              None)
          !metrics
      in
      metrics := [];
      { events = canonical events;
        counters = List.sort compare counters })

let reset () = ignore (drain ())

(* --- JSON ---------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
        | _ -> ()
    in
    let expect c =
      if peek () = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let parse_lit lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ lit)
    in
    let add_utf8 buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' ->
          advance ();
          Buffer.contents buf
        | '\\' ->
          advance ();
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 >= n then fail "truncated \\u escape";
             (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code ->
                add_utf8 buf code;
                pos := !pos + 4
              | None -> fail "bad \\u escape")
           | _ -> fail "bad escape");
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && numchar s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((k, v) :: acc)
            | '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              items (v :: acc)
            | ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
      | '"' -> Str (parse_string ())
      | 't' -> parse_lit "true" (Bool true)
      | 'f' -> parse_lit "false" (Bool false)
      | 'n' -> parse_lit "null" Null
      | c when c = '-' || (c >= '0' && c <= '9') -> Num (parse_number ())
      | _ -> fail "unexpected character"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

  let escape s =
    if not (String.exists needs_escape s) then s
    else begin
      let buf = Buffer.create (String.length s + 2) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.contents buf
    end

  let num_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
    else if Float.is_nan f then "0"
    else Printf.sprintf "%.9g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num f -> Buffer.add_string buf (num_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
end

(* --- exporters ----------------------------------------------------- *)

module Export = struct
  let t0_of events =
    List.fold_left (fun acc e -> Float.min acc e.ev_start) infinity events

  let attr_obj attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)

  let jsonl snap =
    let t0 = t0_of snap.events in
    let buf = Buffer.create 4096 in
    List.iter
      (fun e ->
        let line =
          Json.Obj
            [ "path", Json.Str e.ev_path;
              "name", Json.Str e.ev_name;
              "kind", Json.Str (if e.ev_instant then "instant" else "span");
              "ts", Json.Num (e.ev_start -. t0);
              "dur", Json.Num e.ev_dur;
              "attrs", attr_obj e.ev_attrs ]
        in
        Buffer.add_string buf (Json.to_string line);
        Buffer.add_char buf '\n')
      snap.events;
    Buffer.contents buf

  let normalize_jsonl log =
    let normalize_line line =
      match Json.parse line with
      | Json.Obj fields ->
        let fields =
          List.map
            (fun (k, v) ->
              match k, v with
              | ("ts" | "dur"), _ -> (k, Json.Num 0.)
              | "attrs", Json.Obj attrs ->
                ( k,
                  Json.Obj
                    (List.map
                       (fun (ak, av) ->
                         if is_gc_attr ak then (ak, Json.Str "0") else (ak, av))
                       attrs) )
              | _ -> (k, v))
            fields
        in
        Json.to_string (Json.Obj fields)
      | v -> Json.to_string v
    in
    String.split_on_char '\n' log
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map normalize_line
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""

  let chrome snap =
    let t0 = t0_of snap.events in
    let t_end =
      List.fold_left
        (fun acc e -> Float.max acc (e.ev_start +. e.ev_dur))
        t0 snap.events
    in
    let us t = (t -. t0) *. 1e6 in
    let domains =
      List.sort_uniq compare (List.map (fun e -> e.ev_domain) snap.events)
    in
    let meta =
      Json.Obj
        [ "name", Json.Str "process_name";
          "ph", Json.Str "M";
          "pid", Json.Num 0.;
          "args", Json.Obj [ "name", Json.Str "compact" ] ]
      :: List.map
           (fun d ->
             Json.Obj
               [ "name", Json.Str "thread_name";
                 "ph", Json.Str "M";
                 "pid", Json.Num 0.;
                 "tid", Json.Num (float_of_int d);
                 "args",
                 Json.Obj [ "name", Json.Str (Printf.sprintf "domain %d" d) ] ])
           domains
    in
    let ev_json e =
      let common =
        [ "name", Json.Str e.ev_name;
          "cat", Json.Str "compact";
          "ts", Json.Num (us e.ev_start);
          "pid", Json.Num 0.;
          "tid", Json.Num (float_of_int e.ev_domain);
          "args", attr_obj (("path", e.ev_path) :: e.ev_attrs) ]
      in
      if e.ev_instant then
        Json.Obj (("ph", Json.Str "i") :: ("s", Json.Str "t") :: common)
      else
        Json.Obj
          (("ph", Json.Str "X") :: ("dur", Json.Num (e.ev_dur *. 1e6)) :: common)
    in
    let counter_json (name, v) =
      Json.Obj
        [ "name", Json.Str name;
          "ph", Json.Str "C";
          "ts", Json.Num (us t_end);
          "pid", Json.Num 0.;
          "tid", Json.Num 0.;
          "args", Json.Obj [ "value", Json.Num v ] ]
    in
    Json.to_string
      (Json.Obj
         [ "traceEvents",
           Json.Arr
             (meta
             @ List.map ev_json snap.events
             @ List.map counter_json snap.counters);
           "displayTimeUnit", Json.Str "ms" ])

  let write_file path contents =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)

  (* Write-then-rename so readers never observe a torn file — the same
     discipline the persistent cache snapshot uses. *)
  let write_file_atomic path contents =
    let tmp = path ^ ".tmp" in
    write_file tmp contents;
    Sys.rename tmp path

  let write_jsonl path snap = write_file path (jsonl snap)
  let write_chrome path snap = write_file path (chrome snap)

  (* Parse a JSONL export back into a snapshot (flight-recorder replay
     for `profile --from`).  Raises [Json.Parse_error] on lines missing
     the path/name/kind fields. *)
  let parse_jsonl text =
    let parse_line i line =
      let j = Json.parse line in
      let str k =
        match Json.member k j with
        | Some (Json.Str s) -> s
        | _ -> raise (Json.Parse_error ("missing \"" ^ k ^ "\""))
      in
      let num k =
        match Json.member k j with Some (Json.Num f) -> f | _ -> 0.
      in
      let attrs =
        match Json.member "attrs" j with
        | Some (Json.Obj fields) ->
          List.map
            (fun (k, v) ->
              (k, match v with Json.Str s -> s | v -> Json.to_string v))
            fields
        | _ -> []
      in
      { ev_path = str "path";
        ev_name = str "name";
        ev_instant = str "kind" = "instant";
        ev_start = num "ts";
        ev_dur = num "dur";
        ev_domain = 0;
        ev_seq = i + 1;
        ev_attrs = attrs }
    in
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    { events = List.mapi parse_line lines; counters = [] }
end

(* --- metrics snapshot + renderers ---------------------------------- *)

module Metrics = struct
  type hist_view = {
    hv_name : string;
    hv_unit : string;
    hv_count : int;
    hv_buckets : (float option * int) list;
        (* (upper bound, count) for non-empty buckets; None = overflow *)
    hv_p50 : float;
    hv_p90 : float;
    hv_p99 : float;
    hv_max : float;
  }

  type view = {
    m_counters : (string * int) list;
    m_gauges : (string * float) list;
    m_hists : hist_view list;
  }

  let hist_view h =
    let counts = Hist.counts h in
    let n = Array.length counts in
    let buckets = ref [] in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let le = if i = n - 1 then None else Some (Hist.bound h i) in
          buckets := (le, c) :: !buckets
        end)
      counts;
    { hv_name = h.h_name;
      hv_unit = h.h_unit;
      hv_count = Hist.total counts;
      hv_buckets = List.rev !buckets;
      hv_p50 = Hist.quantile_of_counts h counts 50;
      hv_p90 = Hist.quantile_of_counts h counts 90;
      hv_p99 = Hist.quantile_of_counts h counts 99;
      hv_max = Hist.quantile_of_counts h counts 100 }

  (* Non-destructive read of every registered metric: unlike [drain],
     nothing is zeroed or unregistered, so a serving process can answer
     `metrics` requests forever.  Sorted by name for determinism. *)
  let snapshot () =
    Mutex.protect registry_mutex (fun () ->
        let cs = ref [] and gs = ref [] and hs = ref [] in
        List.iter
          (function
            | C c -> cs := (c.c_name, Atomic.get c.c_cell) :: !cs
            | G g -> gs := (g.g_name, Atomic.get g.g_cell) :: !gs
            | H h -> hs := hist_view h :: !hs)
          !metrics;
        { m_counters = List.sort compare !cs;
          m_gauges = List.sort compare !gs;
          m_hists = List.sort (fun a b -> compare a.hv_name b.hv_name) !hs })

  let hist_json hv =
    Json.Obj
      [ "name", Json.Str hv.hv_name;
        "unit", Json.Str hv.hv_unit;
        "count", Json.Num (float_of_int hv.hv_count);
        "buckets",
        Json.Arr
          (List.map
             (fun (le, c) ->
               Json.Arr
                 [ (match le with Some b -> Json.Num b | None -> Json.Null);
                   Json.Num (float_of_int c) ])
             hv.hv_buckets);
        "p50", Json.Num hv.hv_p50;
        "p90", Json.Num hv.hv_p90;
        "p99", Json.Num hv.hv_p99;
        "max", Json.Num hv.hv_max ]

  let json_fields v =
    [ "counters",
      Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) v.m_counters);
      "gauges", Json.Obj (List.map (fun (k, x) -> (k, Json.Num x)) v.m_gauges);
      "hists", Json.Arr (List.map hist_json v.m_hists) ]

  let to_json v = Json.Obj (json_fields v)

  (* Accepts any object carrying counters/gauges/hists members — in
     particular a whole `metrics` wire reply. *)
  let of_json j =
    let num = function Json.Num f -> f | _ -> 0. in
    match
      (Json.member "counters" j, Json.member "gauges" j, Json.member "hists" j)
    with
    | Some (Json.Obj cs), Some (Json.Obj gs), Some (Json.Arr hs) ->
      let hist hj =
        match hj with
        | Json.Obj _ ->
          let str k =
            match Json.member k hj with Some (Json.Str s) -> s | _ -> ""
          in
          let fnum k =
            match Json.member k hj with Some (Json.Num f) -> f | _ -> 0.
          in
          let buckets =
            match Json.member "buckets" hj with
            | Some (Json.Arr bs) ->
              List.filter_map
                (function
                  | Json.Arr [ le; Json.Num c ] ->
                    let le =
                      match le with Json.Num b -> Some b | _ -> None
                    in
                    Some (le, int_of_float c)
                  | _ -> None)
                bs
            | _ -> []
          in
          Some
            { hv_name = str "name";
              hv_unit = str "unit";
              hv_count = int_of_float (fnum "count");
              hv_buckets = buckets;
              hv_p50 = fnum "p50";
              hv_p90 = fnum "p90";
              hv_p99 = fnum "p99";
              hv_max = fnum "max" }
        | _ -> None
      in
      Some
        { m_counters =
            List.map (fun (k, v) -> (k, int_of_float (num v))) cs;
          m_gauges = List.map (fun (k, v) -> (k, num v)) gs;
          m_hists = List.filter_map hist hs }
    | _ -> None

  let mangle name =
    "compact_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
          | _ -> '_')
        name

  (* Prometheus text exposition.  Histogram buckets are cumulative; the
     _sum is approximated from bucket upper bounds in a fixed order, so
     the rendering of a given snapshot is deterministic. *)
  let prometheus v =
    let buf = Buffer.create 1024 in
    let num = Json.num_to_string in
    List.iter
      (fun (k, n) ->
        let m = mangle k in
        Printf.bprintf buf "# TYPE %s counter\n%s %d\n" m m n)
      v.m_counters;
    List.iter
      (fun (k, x) ->
        let m = mangle k in
        Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" m m (num x))
      v.m_gauges;
    List.iter
      (fun hv ->
        let m = mangle hv.hv_name in
        Printf.bprintf buf "# TYPE %s histogram\n" m;
        let cum = ref 0 and sum = ref 0. in
        let saw_inf = ref false in
        List.iter
          (fun (le, c) ->
            cum := !cum + c;
            let le_s =
              match le with
              | Some b ->
                sum := !sum +. (b *. float_of_int c);
                num b
              | None ->
                saw_inf := true;
                "+Inf"
            in
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" m le_s !cum)
          hv.hv_buckets;
        if not !saw_inf then
          Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" m !cum;
        Printf.bprintf buf "%s_sum %s\n" m (num !sum);
        Printf.bprintf buf "%s_count %d\n" m hv.hv_count)
      v.m_hists;
    Buffer.contents buf
end

(* --- flight recorder ------------------------------------------------ *)

module Recorder = struct
  let capacity = ring_capacity
  let set_enabled = set_recorder_enabled
  let enabled = recorder_enabled

  (* Non-destructive: collect every domain's ring oldest-first and
     canonicalise like [drain] so dumps are stable for a given set of
     recorded spans. *)
  let snapshot () =
    Mutex.protect registry_mutex (fun () ->
        let events =
          List.concat_map
            (fun b ->
              let n = b.d_rlen in
              if n = 0 then []
              else begin
                let cap = Array.length b.d_ring in
                let start = if n < cap then 0 else b.d_rpos in
                List.init n (fun i -> b.d_ring.((start + i) mod cap))
              end)
            (List.rev !registry)
        in
        { events = canonical events; counters = [] })

  let dump_jsonl () = Export.jsonl (snapshot ())
  let dump_file path = Export.write_file_atomic path (dump_jsonl ())
end

(* --- aggregation --------------------------------------------------- *)

module Agg = struct
  type row = {
    r_path : string;
    r_name : string;
    r_count : int;
    r_total : float;
    r_minor_words : float;
    r_major_words : float;
    r_first : float;
  }

  let attr_float k attrs =
    match List.assoc_opt k attrs with
    | Some v -> Option.value ~default:0. (float_of_string_opt v)
    | None -> 0.

  let phases snap =
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun e ->
        if not e.ev_instant then begin
          let key = (e.ev_path, e.ev_name) in
          let row =
            match Hashtbl.find_opt tbl key with
            | Some r -> r
            | None ->
              let r =
                ref
                  { r_path = e.ev_path;
                    r_name = e.ev_name;
                    r_count = 0;
                    r_total = 0.;
                    r_minor_words = 0.;
                    r_major_words = 0.;
                    r_first = infinity }
              in
              Hashtbl.add tbl key r;
              order := key :: !order;
              r
          in
          row :=
            { !row with
              r_count = !row.r_count + 1;
              r_total = !row.r_total +. e.ev_dur;
              r_minor_words =
                !row.r_minor_words +. attr_float "gc.minor_words" e.ev_attrs;
              r_major_words =
                !row.r_major_words +. attr_float "gc.major_words" e.ev_attrs;
              r_first = Float.min !row.r_first e.ev_start }
        end)
      snap.events;
    List.rev !order
    |> List.map (fun key -> !(Hashtbl.find tbl key))
    |> List.sort (fun a b -> compare (a.r_first, a.r_path) (b.r_first, b.r_path))
end
