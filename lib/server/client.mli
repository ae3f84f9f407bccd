(** A blocking [compactd] client: one line out, one line in — plus the
    resilience a client needs to ride through server restarts: capped
    exponential backoff with seeded jitter on connect, EINTR-safe
    syscalls, and idempotent request replay keyed by request id. *)

type t

val connect :
  ?retries:int ->
  ?base:float ->
  ?cap:float ->
  ?seed:int ->
  string ->
  t
(** Connect to the server's Unix-domain socket.  While the path is
    missing or refusing (the startup race against a server launched in a
    fresh domain/process, or a restart gap), the connection is retried
    up to [retries] (default 100) times, sleeping
    [min cap (base * 2^k)] seconds scaled by a seeded jitter draw in
    [0.5, 1.0] before attempt [k].  Defaults: [base] 5 ms, [cap] 100 ms,
    [seed] {!Crossbar.Rng.default_seed} — deterministic, so tests
    replay.
    @raise Unix.Unix_error when the last retry fails. *)

val of_fd : Unix.file_descr -> t
(** A client over an already-connected stream socket, such as one end of
    a [Unix.socketpair]. It has no path to reconnect to, so
    {!request_idempotent} raises on a lost connection instead of
    replaying. *)

val backoff_delay : seed:int -> base:float -> cap:float -> int -> float
(** The exact sleep before attempt [k]: pure, for tests. *)

val send : t -> string -> unit
(** Write one request line (the newline is appended). Retries [EINTR]. *)

val recv : t -> string
(** Read the next response line, scanning each byte read once, so a
    long response costs time linear in its size. Retries [EINTR].
    @raise End_of_file if the server closed the connection. *)

val request : t -> string -> string
(** [send] then [recv] — no replay; a dropped connection raises. *)

val request_idempotent : ?replays:int -> t -> string -> string
(** [request] that survives server restarts and shedding.  The request
    line must be idempotent (synth/status/stats are: the engine is
    deterministic and cached hits are byte-identical).  On a dropped
    connection the client reconnects (with backoff) and replays the
    identical line — same id — up to [replays] (default 16) times; on a
    structured [retry-after] response it sleeps the hinted delay (capped
    at 1 s, floored by its own backoff) and replays; a response whose id
    does not match the request's is discarded as stale and the read
    continues.
    @raise Unix.Unix_error / [End_of_file] when replays run out. *)

val close : t -> unit
