type t = {
  path : string;
  seed : int;
  base : float;
  cap : float;
  retries : int;
  mutable fd : Unix.file_descr;
  mutable rbuf : Bytes.t;  (* bytes [rpos, rlen) are read, not yet returned *)
  mutable rpos : int;
  mutable rlen : int;
}

let chunk = 8192

(* Capped exponential backoff with seeded jitter: attempt [k] sleeps
   [min cap (base * 2^k)] scaled into [0.5, 1.0] by a deterministic
   draw, so concurrent clients decorrelate without tests losing
   reproducibility. *)
let backoff_delay ~seed ~base ~cap k =
  let raw = base *. (2. ** float_of_int (min k 30)) in
  let capped = Float.min cap raw in
  let u =
    Random.State.float (Crossbar.Rng.state seed ("client-backoff", k)) 1.
  in
  capped *. (0.5 +. (0.5 *. u))

let rec connect_fd ~retries ~seed ~base ~cap path k =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
    when k < retries ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Unix.sleepf (backoff_delay ~seed ~base ~cap k);
    connect_fd ~retries ~seed ~base ~cap path (k + 1)
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let make ~retries ~base ~cap ~seed path fd =
  { path; seed; base; cap; retries; fd; rbuf = Bytes.create chunk; rpos = 0;
    rlen = 0 }

let connect ?(retries = 100) ?(base = 0.005) ?(cap = 0.1)
    ?(seed = Crossbar.Rng.default_seed) path =
  make ~retries ~base ~cap ~seed path
    (connect_fd ~retries ~seed ~base ~cap path 0)

(* No path and no retries: a reconnect raises at once. *)
let of_fd fd =
  make ~retries:0 ~base:0. ~cap:0. ~seed:Crossbar.Rng.default_seed "" fd

let reconnect t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (* Anything half-read from the dead connection is garbage now. *)
  t.rpos <- 0;
  t.rlen <- 0;
  t.fd <-
    connect_fd ~retries:t.retries ~seed:t.seed ~base:t.base ~cap:t.cap
      t.path 0

let send t line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec go off =
    if off < len then
      match Unix.write t.fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let rec newline_from b i stop =
  if i >= stop then None
  else if Bytes.get b i = '\n' then Some i
  else newline_from b (i + 1) stop

(* Each byte is scanned for the newline once: no byte of
   [rpos, from) is one. A line longer than the buffer doubles it, so a
   response of any size is read in linear time. *)
let rec recv_from t from =
  match newline_from t.rbuf from t.rlen with
  | Some i ->
    let line = Bytes.sub_string t.rbuf t.rpos (i - t.rpos) in
    t.rpos <- i + 1;
    line
  | None ->
    (* Move the pending bytes to the front, into a buffer with room for
       a full chunk behind them. *)
    let pending = t.rlen - t.rpos in
    if Bytes.length t.rbuf - pending < chunk then begin
      let bigger = Bytes.create (2 * Bytes.length t.rbuf) in
      Bytes.blit t.rbuf t.rpos bigger 0 pending;
      t.rbuf <- bigger
    end
    else if t.rpos > 0 then Bytes.blit t.rbuf t.rpos t.rbuf 0 pending;
    t.rpos <- 0;
    t.rlen <- pending;
    (match Unix.read t.fd t.rbuf pending (Bytes.length t.rbuf - pending) with
     | 0 -> raise End_of_file
     | n ->
       t.rlen <- pending + n;
       recv_from t pending
     | exception Unix.Unix_error (EINTR, _, _) -> recv_from t pending)

let recv t = recv_from t t.rpos

let request t line =
  send t line;
  recv t

(* ------------------------------------------------------------------ *)
(* Idempotent replay.  A synth request is a pure function of its line
   (the engine is deterministic and the cache serves identical bytes),
   so replaying the same line — same id — against a restarted server is
   safe.  Three things trigger a replay: the connection dying
   mid-request (server crash or restart), a structured [retry-after]
   shed, and a stale response whose id does not match (skipped, then the
   read continues). *)

let connection_lost = function
  | End_of_file -> true
  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN | ESHUTDOWN),
                     _, _) -> true
  | _ -> false

let line_id line =
  match Obs.Json.parse line with
  | exception Obs.Json.Parse_error _ -> None
  | j -> Obs.Json.member "id" j

let request_idempotent ?(replays = 16) t line =
  let want_id = line_id line in
  let id_matches resp =
    match want_id with
    | None -> true
    | Some id ->
      (match Obs.Json.parse resp with
       | exception Obs.Json.Parse_error _ -> true
       | j -> Obs.Json.member "id" j = Some id || id = Obs.Json.Null)
  in
  let rec attempt k =
    let fail_or_retry e =
      if k >= replays then raise e
      else begin
        (* A reconnect that exhausts its own retries raises the last
           connect error: the server really is gone. *)
        reconnect t;
        attempt (k + 1)
      end
    in
    match
      send t line;
      (* Swallow stale responses (an earlier request abandoned between
         send and recv) until the id lines up. *)
      let rec read_matching budget =
        let resp = recv t in
        if id_matches resp || budget = 0 then resp
        else read_matching (budget - 1)
      in
      read_matching 8
    with
    | resp ->
      (match Protocol.retry_after_hint resp with
       | Some after when k < replays ->
         Unix.sleepf
           (Float.max (backoff_delay ~seed:t.seed ~base:t.base ~cap:t.cap k)
              (Float.min after 1.));
         attempt (k + 1)
       | _ -> resp)
    | exception e when connection_lost e -> fail_or_retry e
  in
  attempt 0

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
