type reason = Deadline | Cancelled | Nodes | Memory | Injected

let reason_name = function
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"
  | Nodes -> "nodes"
  | Memory -> "memory"
  | Injected -> "injected"

exception Exhausted of reason

let () =
  Printexc.register_printer (function
    | Exhausted r -> Some (Printf.sprintf "Resilience.Budget.Exhausted(%s)" (reason_name r))
    | _ -> None)

type t = {
  deadline : float;  (* absolute Obs.Clock time; infinity = none *)
  cancel_flag : bool Atomic.t;  (* shared with every slice *)
  cancellable : bool;  (* false only for [unlimited] *)
  node_limit : int;  (* max_int = none *)
  nodes_used : int Atomic.t;  (* shared with every slice *)
  mem_limit_words : int;  (* max_int = none *)
  tripped : bool Atomic.t;  (* per-value first-exhaustion latch *)
}

let unlimited =
  {
    deadline = infinity;
    cancel_flag = Atomic.make false;
    cancellable = false;
    node_limit = max_int;
    nodes_used = Atomic.make 0;
    mem_limit_words = max_int;
    tripped = Atomic.make false;
  }

let create ?deadline ?nodes ?memory_words () =
  {
    deadline =
      (match deadline with
       | Some s when s < infinity -> Obs.Clock.now () +. max 0. s
       | Some _ | None -> infinity);
    cancel_flag = Atomic.make false;
    cancellable = true;
    node_limit = (match nodes with Some n -> n | None -> max_int);
    nodes_used = Atomic.make 0;
    mem_limit_words =
      (match memory_words with Some w -> w | None -> max_int);
    tripped = Atomic.make false;
  }

let seconds s = create ~deadline:s ()

let is_unlimited t =
  t.deadline = infinity
  && t.node_limit = max_int
  && t.mem_limit_words = max_int
  && not (Atomic.get t.cancel_flag)

let cancel t = if t.cancellable then Atomic.set t.cancel_flag true
let cancelled t = Atomic.get t.cancel_flag

let remaining t =
  if t.deadline = infinity then infinity
  else max 0. (t.deadline -. Obs.Clock.now ())

let slice t ~frac =
  let deadline =
    if t.deadline = infinity then infinity
    else Obs.Clock.now () +. (max 0. frac *. remaining t)
  in
  { t with deadline = min deadline t.deadline; tripped = Atomic.make false }

let untimed t =
  if t.deadline = infinity then t
  else { t with deadline = infinity; tripped = Atomic.make false }

let limited t s =
  if s = infinity then t
  else
    {
      t with
      deadline = min t.deadline (Obs.Clock.now () +. max 0. s);
      tripped = Atomic.make false;
    }

let consume_nodes t n =
  if t.node_limit < max_int then
    ignore (Atomic.fetch_and_add t.nodes_used n)

let c_exhausted = Obs.Counter.make "budget.exhausted"

(* First observation of exhaustion on a budget value leaves a trace
   event; subsequent polls of the same (already-dead) budget stay
   silent so a spinning poll loop cannot flood the buffers. *)
let trip t r =
  if not (Atomic.exchange t.tripped true) then begin
    Obs.Counter.incr c_exhausted;
    Obs.Span.event "budget-exhausted" ~attrs:[ "reason", reason_name r ]
  end;
  Some r

let state t =
  if Inject.fire Inject.Timeout then trip t Injected
  else if Atomic.get t.cancel_flag then trip t Cancelled
  else if t.deadline < infinity && Obs.Clock.now () > t.deadline then
    trip t Deadline
  else if t.node_limit < max_int && Atomic.get t.nodes_used > t.node_limit
  then trip t Nodes
  else if
    t.mem_limit_words < max_int
    && (Gc.quick_stat ()).Gc.heap_words > t.mem_limit_words
  then trip t Memory
  else None

let exhausted t = state t <> None

let check t =
  match state t with Some r -> raise (Exhausted r) | None -> ()

let protect_oom f =
  try f () with Out_of_memory -> raise (Exhausted Memory)

let pp_reason ppf r = Format.pp_print_string ppf (reason_name r)
