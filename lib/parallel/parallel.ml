(* Fixed domain pool with deterministic (submission-order) merging.

   Shape: one shared FIFO of thunks behind a mutex, [jobs - 1] worker
   domains blocked on a condition, and the submitting domain helping to
   drain the queue during [run] — so a pool of j jobs really executes j
   tasks concurrently without one domain sitting idle as a coordinator.
   Tasks never let an exception escape into a worker: each task stores
   its outcome (value or exception + backtrace) into its slot, and [run]
   re-raises the earliest failure only after the whole batch completed,
   which is what keeps a raising task from wedging the other slots. *)

type pool = {
  n_jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue grows or on shutdown *)
  batch_done : Condition.t;  (* signalled when a batch's last task lands *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let default_jobs () =
  match Sys.getenv_opt "COMPACT_JOBS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> 1)

let jobs p = p.n_jobs

(* Pool utilisation metrics. Registered lazily (only while tracing is
   enabled), so the jobs=1 sequential path and untraced runs see a
   single load-and-branch per counter site. *)
let c_submitted = Obs.Counter.make "pool.tasks_submitted"
let c_worker = Obs.Counter.make "pool.tasks_worker"
let c_helped = Obs.Counter.make "pool.tasks_helped"
let c_idle_waits = Obs.Counter.make "pool.idle_waits"
let c_skipped = Obs.Counter.make "pool.tasks_skipped"

let rec worker_loop p =
  Mutex.lock p.mutex;
  while Queue.is_empty p.queue && not p.stopping do
    Obs.Counter.incr c_idle_waits;
    Condition.wait p.work p.mutex
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.mutex (* stopping *)
  else begin
    let task = Queue.pop p.queue in
    Mutex.unlock p.mutex;
    Obs.Counter.incr c_worker;
    (* A task records its own outcome and must not raise, but an
       asynchronous exception (Out_of_memory between the handler and the
       slot store) could still escape.  Swallow it here: the task has a
       second-chance recorder for its slot, and a worker that died
       instead of looping would silently halve the pool. *)
    (try task () with _ -> ());
    worker_loop p
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Parallel.create: jobs must be >= 1";
  let p =
    {
      n_jobs = jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      closed = false;
      workers = [||];
    }
  in
  if jobs > 1 then
    p.workers <-
      Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let shutdown p =
  if not p.closed then begin
    p.closed <- true;
    if Array.length p.workers > 0 then begin
      Mutex.lock p.mutex;
      p.stopping <- true;
      Condition.broadcast p.work;
      Mutex.unlock p.mutex;
      Array.iter Domain.join p.workers;
      p.workers <- [||]
    end
  end

let with_pool ?jobs f =
  let p =
    create ~jobs:(match jobs with Some j -> j | None -> default_jobs ())
  in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* The sequential (jobs = 1) poll: identical fault surface to a pooled
   task, so the chaos battery exercises the same sites at every jobs
   count.  Both calls are single-load no-ops when nothing is armed and
   no budget was passed. *)
let seq_poll budget =
  Resilience.Inject.poison_pool ();
  Resilience.Budget.check budget

(* The pooled batch machinery of [run].  [record] stores a task's
   outcome into its slot exactly once (the async second-chance recorder
   may race the first) and wakes the submitter when the batch's last
   slot lands.  [submit_and_help] queues the batch and has the submitter
   execute queued tasks until the batch drains, then wait for the
   in-flight stragglers on the other domains. *)
let record p ~remaining slots i v =
  Mutex.lock p.mutex;
  (match slots.(i) with
   | None ->
     slots.(i) <- Some v;
     decr remaining;
     if !remaining = 0 then Condition.broadcast p.batch_done
   | Some _ -> ());
  Mutex.unlock p.mutex

let submit_and_help p ~remaining tasks =
  Obs.Counter.add c_submitted (Array.length tasks);
  Mutex.lock p.mutex;
  Array.iter (fun t -> Queue.push t p.queue) tasks;
  Condition.broadcast p.work;
  let rec help () =
    if !remaining = 0 then Mutex.unlock p.mutex
    else if not (Queue.is_empty p.queue) then begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.mutex;
      Obs.Counter.incr c_helped;
      (try task () with _ -> ());
      Mutex.lock p.mutex;
      help ()
    end
    else begin
      Condition.wait p.batch_done p.mutex;
      help ()
    end
  in
  help ()

let run (type a) ?(budget = Resilience.Budget.unlimited) p
    (thunks : (unit -> a) array) : a array =
  if p.closed then invalid_arg "Parallel.run: pool is shut down";
  let n = Array.length thunks in
  if p.n_jobs = 1 || n <= 1 then
    Array.map
      (fun f ->
        seq_poll budget;
        f ())
      thunks
  else begin
    let results : (a, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let remaining = ref n in
    (* Tasks execute under the submitter's span context, so spans they
       record land at the same logical path for every jobs count — the
       drained span tree is then jobs-independent by construction. *)
    let ctx = Obs.context () in
    let task i () =
      let record = record p ~remaining results i in
      match
        let outcome =
          (* Poll the budget before starting: a cancelled or expired
             batch skips the remaining queued thunks instead of running
             them to completion.  FIFO pop order guarantees every
             skipped index is above every started one. *)
          match Resilience.Budget.state budget with
          | Some r ->
            Obs.Counter.incr c_skipped;
            Error
              (Resilience.Budget.Exhausted r, Printexc.get_callstack 0)
          | None ->
            (match
               Obs.with_context ctx (fun () ->
                   Resilience.Inject.poison_pool ();
                   thunks.(i) ())
             with
             | v -> Ok v
             | exception e ->
               (* First failure cancels the rest of the batch — a no-op
                  unless the caller passed a real (cancellable) budget. *)
               Resilience.Budget.cancel budget;
               Error (e, Printexc.get_raw_backtrace ()))
        in
        record outcome
      with
      | () -> ()
      | exception e ->
        (* Async exception escaped even the handler above; make sure the
           slot still lands so the batch drains. *)
        record (Error (e, Printexc.get_raw_backtrace ()))
    in
    submit_and_help p ~remaining (Array.init n task);
    (* Re-raise the earliest root failure.  Cancellation skips are a
       consequence of some other task failing (or the deadline passing
       before the batch started), so a real error at a lower index —
       and FIFO order puts every skip above every started task — wins
       over the [Exhausted Cancelled] it caused. *)
    let first_err = ref None in
    let first_root = ref None in
    Array.iter
      (function
        | Some (Error (e, bt)) ->
          if !first_err = None then first_err := Some (e, bt);
          (match e with
           | Resilience.Budget.Exhausted Resilience.Budget.Cancelled -> ()
           | _ -> if !first_root = None then first_root := Some (e, bt))
        | _ -> ())
      results;
    (match
       match !first_root with Some _ as s -> s | None -> !first_err
     with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error _) | None -> assert false)
      results
  end

let chunks_of ~chunk xs =
  let rec take k acc rest =
    match rest with
    | _ when k = 0 -> List.rev acc, rest
    | [] -> List.rev acc, []
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
      let c, rest = take chunk [] xs in
      go (c :: acc) rest
  in
  go [] xs

let map ?budget ?(chunk = 1) p f xs =
  if p.n_jobs = 1 then
    let budget =
      match budget with Some b -> b | None -> Resilience.Budget.unlimited
    in
    List.map
      (fun x ->
        seq_poll budget;
        f x)
      xs
  else if chunk <= 1 then
    Array.to_list
      (run ?budget p (Array.of_list (List.map (fun x () -> f x) xs)))
  else
    chunks_of ~chunk xs
    |> List.map (fun c () -> List.map f c)
    |> Array.of_list
    |> run ?budget p
    |> Array.to_list
    |> List.concat
