type node = int

exception Size_limit of int

type stats = {
  unique_lookups : int;
  unique_hits : int;
  unique_collisions : int;
  cache_lookups : int;
  cache_hits : int;
  growths : int;
  peak_nodes : int;
  level_swaps : int;
  sift_passes : int;
  cache_invalidations : int;
}

(* The manager is laid out CUDD-style for cache locality and zero
   per-operation allocation:

   - Nodes live in growable parallel arrays indexed by handle; handles 0
     and 1 are the terminals, their level is max_int so they sort below
     every variable.
   - The unique table is an open-addressed (linear probing) power-of-two
     array of node handles; a (level, low, high) key is never boxed — the
     probe compares against the node arrays directly.
   - Bryant's binary apply is the one recursive operation, and its
     cache the one operation cache: a lossy direct-mapped table of
     (op, f, g) -> r quadruples in four flat int arrays; a colliding
     entry is simply overwritten.
   - apply runs on an explicit worklist (a reusable int-array frame
     stack), so diagrams tens of thousands of levels deep cannot
     overflow the OCaml stack. *)

type t = {
  nvars : int;
  node_limit : int;
  mutable levels : int array;
  mutable lows : int array;
  mutable highs : int array;
  mutable next : int;  (* next free handle *)
  (* open-addressed unique table; slots hold a node handle or -1 *)
  mutable table : int array;
  mutable table_mask : int;
  (* direct-mapped apply cache keyed (op, f, g); op_k1 = -1 marks an
     empty slot *)
  mutable op_k1 : int array;
  mutable op_k2 : int array;
  mutable op_k3 : int array;
  mutable op_r : int array;
  mutable op_mask : int;
  (* reusable worklist scratch: frames of [frame_slots] ints + a result
     stack *)
  mutable tasks : int array;
  mutable task_sp : int;
  mutable res : int array;
  mutable res_sp : int;
  (* counters behind [stats] *)
  mutable unique_lookups : int;
  mutable unique_hits : int;
  mutable unique_collisions : int;
  mutable cache_lookups : int;
  mutable cache_hits : int;
  mutable growths : int;
  mutable level_swaps : int;
  mutable sift_passes : int;
  mutable cache_invalidations : int;
  (* true while the apply cache is known empty, so a burst of level swaps
     pays for at most one invalidation *)
  mutable cache_clean : bool;
}

let zero = 0
let one = 1
let is_terminal n = n < 2

let initial_table_size = 4096
let initial_cache_size = 4096

let create ?(node_limit = max_int) ~num_vars () =
  let cap = 1024 in
  let levels = Array.make cap max_int in
  let lows = Array.make cap (-1) in
  let highs = Array.make cap (-1) in
  {
    nvars = num_vars;
    node_limit;
    levels;
    lows;
    highs;
    next = 2;
    table = Array.make initial_table_size (-1);
    table_mask = initial_table_size - 1;
    op_k1 = Array.make initial_cache_size (-1);
    op_k2 = Array.make initial_cache_size 0;
    op_k3 = Array.make initial_cache_size 0;
    op_r = Array.make initial_cache_size 0;
    op_mask = initial_cache_size - 1;
    tasks = Array.make 320 0;
    task_sp = 0;
    res = Array.make 64 0;
    res_sp = 0;
    unique_lookups = 0;
    unique_hits = 0;
    unique_collisions = 0;
    cache_lookups = 0;
    cache_hits = 0;
    growths = 0;
    level_swaps = 0;
    sift_passes = 0;
    cache_invalidations = 0;
    cache_clean = true;
  }

let allocated t = t.next

let stats t =
  {
    unique_lookups = t.unique_lookups;
    unique_hits = t.unique_hits;
    unique_collisions = t.unique_collisions;
    cache_lookups = t.cache_lookups;
    cache_hits = t.cache_hits;
    growths = t.growths;
    peak_nodes = t.next;
    level_swaps = t.level_swaps;
    sift_passes = t.sift_passes;
    cache_invalidations = t.cache_invalidations;
  }

let pp_stats ppf (s : stats) =
  let pct part whole =
    if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole
  in
  Format.fprintf ppf
    "@[<v>unique table: %d lookups, %d hits (%.1f%%), %d collisions, %d \
     growths@,\
     apply cache: %d lookups, %d hits (%.1f%%), %d invalidations@,\
     reordering: %d level swaps, %d sift passes@,\
     peak nodes: %d@]"
    s.unique_lookups s.unique_hits
    (pct s.unique_hits s.unique_lookups)
    s.unique_collisions s.growths s.cache_lookups s.cache_hits
    (pct s.cache_hits s.cache_lookups)
    s.cache_invalidations s.level_swaps s.sift_passes s.peak_nodes

(* Multiplicative triple mix; the low bits index the power-of-two tables. *)
let hash3 a b c =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA6B) lxor (c * 0xC2B2AE35) in
  let h = h lxor (h lsr 15) in
  h * 0x27D4EB2F

let grow_nodes t =
  (* Chaos-battery checkpoint: table doubling is the manager's big
     allocation, so an injected allocation failure surfaces here. *)
  Resilience.Inject.oom ();
  let cap = Array.length t.levels in
  let bigger a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.levels <- bigger t.levels max_int;
  t.lows <- bigger t.lows (-1);
  t.highs <- bigger t.highs (-1)

(* Cache growth keeps the live entries: direct-mapped insertion into the
   doubled arrays, so a rehash does not throw memoised work away. *)
let grow_op_cache t size =
  if size > Array.length t.op_r then begin
    let mask = size - 1 in
    let k1 = Array.make size (-1) in
    let k2 = Array.make size 0 in
    let k3 = Array.make size 0 in
    let r = Array.make size 0 in
    for i = 0 to Array.length t.op_r - 1 do
      let op = t.op_k1.(i) in
      if op <> -1 then begin
        let j = hash3 op t.op_k2.(i) t.op_k3.(i) land mask in
        k1.(j) <- op;
        k2.(j) <- t.op_k2.(i);
        k3.(j) <- t.op_k3.(i);
        r.(j) <- t.op_r.(i)
      end
    done;
    t.op_k1 <- k1;
    t.op_k2 <- k2;
    t.op_k3 <- k3;
    t.op_r <- r;
    t.op_mask <- mask
  end

let rehash_unique t =
  let size = 2 * (t.table_mask + 1) in
  let mask = size - 1 in
  let table = Array.make size (-1) in
  for n = 2 to t.next - 1 do
    (* level -1 marks a node killed by reordering: its slot is dead and
       must never be resurrected into the table with its stale
       pre-swap structure *)
    if t.levels.(n) >= 0 then begin
      let i = ref (hash3 t.levels.(n) t.lows.(n) t.highs.(n) land mask) in
      while table.(!i) <> -1 do
        i := (!i + 1) land mask
      done;
      table.(!i) <- n
    end
  done;
  t.table <- table;
  t.table_mask <- mask;
  t.growths <- t.growths + 1;
  (* the apply cache tracks the unique table so its hit rate survives
     scale *)
  grow_op_cache t (size / 2)

(* Returns -n when node n already exists, or the (non-negative) free slot
   where a fresh node must be recorded. Handles are >= 2, so the sign
   disambiguates. *)
let rec probe t lvl lo hi i =
  let n = Array.unsafe_get t.table i in
  if n = -1 then i
  else if
    Array.unsafe_get t.levels n = lvl
    && Array.unsafe_get t.lows n = lo
    && Array.unsafe_get t.highs n = hi
  then -n
  else begin
    t.unique_collisions <- t.unique_collisions + 1;
    probe t lvl lo hi ((i + 1) land t.table_mask)
  end

(* The single reduction point: no node with equal children, and full
   sharing through the unique table. *)
let mk t lvl lo hi =
  if lo = hi then lo
  else begin
    t.unique_lookups <- t.unique_lookups + 1;
    let p = probe t lvl lo hi (hash3 lvl lo hi land t.table_mask) in
    if p < 0 then begin
      t.unique_hits <- t.unique_hits + 1;
      -p
    end
    else begin
      if t.next >= t.node_limit then raise (Size_limit t.node_limit);
      if t.next >= Array.length t.levels then grow_nodes t;
      let n = t.next in
      t.next <- n + 1;
      t.levels.(n) <- lvl;
      t.lows.(n) <- lo;
      t.highs.(n) <- hi;
      t.table.(p) <- n;
      if 4 * (t.next - 2) > 3 * (t.table_mask + 1) then rehash_unique t;
      n
    end
  end

let level t n = t.levels.(n)

let low t n =
  if is_terminal n then invalid_arg "Bdd.Manager.low: terminal";
  t.lows.(n)

let high t n =
  if is_terminal n then invalid_arg "Bdd.Manager.high: terminal";
  t.highs.(n)

let var t i =
  if i < 0 || i >= t.nvars then invalid_arg "Bdd.Manager.var: out of range";
  mk t i zero one

(* ------------------------------------------------------------------ *)
(* Bryant's apply. An operator is a 4-bit code whose bit (2a + b) is
   op(a, b): [op_and] is 0b1000, [op_or] 0b1110, [op_xor] 0b0110, and
   negating an operand or the result permutes or flips the bits, so a
   negation costs nothing where an operator can absorb it.

   Every step normalises (op, f, g) before the cache is probed: a case
   that does not depend on both operands (a terminal operand, f = g, or
   an operator blind to one side) is a function of one diagram, which is
   a terminal, that diagram, or its complement; the complement is the
   one unary key, (op_not, f, f). A binary case puts the smaller handle
   first and transposes the operator to match, so commuted calls share
   one cache entry.

   The recursion runs on an explicit worklist. Frames are [frame_slots]
   consecutive ints: [tag; op; f; g; lvl]. Tag 0 normalises and expands
   its operands, tag 1 combines the two results its children pushed.
   Both stacks are owned by the manager and reused across calls; the
   base pointers make nested calls (mk never re-enters, but exceptions
   must unwind) safe. *)

let op_and = 0b1000
let op_or = 0b1110
let op_xor = 0b0110
let op_not = 0b0011

(* op(a, b) as a terminal handle: zero and one are 0 and 1. *)
let bit op a b = (op lsr ((2 * a) + b)) land 1

(* The operator of op(b, a): bits 1 and 2 trade places. *)
let transpose op =
  (op land 0b1001) lor ((op land 0b0010) lsl 1) lor ((op land 0b0100) lsr 1)

let frame_slots = 5

let push_task t tag a b c lvl =
  let sp = t.task_sp in
  if sp + frame_slots > Array.length t.tasks then begin
    let bigger = Array.make (2 * Array.length t.tasks) 0 in
    Array.blit t.tasks 0 bigger 0 sp;
    t.tasks <- bigger
  end;
  let tasks = t.tasks in
  Array.unsafe_set tasks sp tag;
  Array.unsafe_set tasks (sp + 1) a;
  Array.unsafe_set tasks (sp + 2) b;
  Array.unsafe_set tasks (sp + 3) c;
  Array.unsafe_set tasks (sp + 4) lvl;
  t.task_sp <- sp + frame_slots

let push_res t r =
  let sp = t.res_sp in
  if sp >= Array.length t.res then begin
    let bigger = Array.make (2 * Array.length t.res) 0 in
    Array.blit t.res 0 bigger 0 sp;
    t.res <- bigger
  end;
  t.res.(sp) <- r;
  t.res_sp <- sp + 1

let cache_find t op f g =
  t.cache_lookups <- t.cache_lookups + 1;
  let i = hash3 op f g land t.op_mask in
  if
    Array.unsafe_get t.op_k1 i = op
    && Array.unsafe_get t.op_k2 i = f
    && Array.unsafe_get t.op_k3 i = g
  then begin
    t.cache_hits <- t.cache_hits + 1;
    Array.unsafe_get t.op_r i
  end
  else -1

let cache_insert t op f g r =
  let i = hash3 op f g land t.op_mask in
  t.op_k1.(i) <- op;
  t.op_k2.(i) <- f;
  t.op_k3.(i) <- g;
  t.op_r.(i) <- r;
  t.cache_clean <- false

(* A normalised key: answer it from the cache, or push its combine
   frame and the two cofactor steps. *)
let expand t op f g =
  let r = cache_find t op f g in
  if r >= 0 then push_res t r
  else begin
    let lf = t.levels.(f) and lg = t.levels.(g) in
    let lvl = if lf < lg then lf else lg in
    let f0 = if lf = lvl then t.lows.(f) else f
    and f1 = if lf = lvl then t.highs.(f) else f
    and g0 = if lg = lvl then t.lows.(g) else g
    and g1 = if lg = lvl then t.highs.(g) else g in
    push_task t 1 op f g lvl;
    push_task t 0 op f0 g0 0;
    (* the then-branch sits on top, so it is evaluated first *)
    push_task t 0 op f1 g1 0
  end

(* A function of [f] alone, [u0] where f is 0 and [u1] where it is 1. *)
let unary t f u0 u1 =
  if u0 = u1 then push_res t u0
  else if u1 = one then push_res t f
  else expand t op_not f f

(* Bit [op] is set for the codes blind to an operand: the constants,
   a, not a, b and not b. *)
let one_sided = 0b1001_0100_0010_1001

let step t op f g =
  if f > one && g > one && f <> g && (one_sided lsr op) land 1 = 0 then
    if f < g then expand t op f g else expand t (transpose op) g f
  else if is_terminal g then
    if is_terminal f then push_res t (bit op f g)
    else unary t f (bit op 0 g) (bit op 1 g)
  else if is_terminal f then unary t g (bit op f 0) (bit op f 1)
  else if f = g then unary t f (bit op 0 0) (bit op 1 1)
  else if bit op 0 0 = bit op 0 1 then unary t f (bit op 0 0) (bit op 1 0)
  else unary t g (bit op 0 0) (bit op 0 1)

(* Top-level apply invocations (not worklist steps), under the name the
   counter had when ITE was the core. The disabled path is a single
   load-and-branch, held to the metrics-overhead budget. *)
let c_apply = Obs.Counter.make "bdd.ite_calls"

let apply t op0 f0 g0 =
  Obs.Counter.incr c_apply;
  let base_sp = t.task_sp and base_rp = t.res_sp in
  try
    push_task t 0 op0 f0 g0 0;
    while t.task_sp > base_sp do
      let sp = t.task_sp - frame_slots in
      t.task_sp <- sp;
      let tasks = t.tasks in
      let op = Array.unsafe_get tasks (sp + 1) in
      let f = Array.unsafe_get tasks (sp + 2) in
      let g = Array.unsafe_get tasks (sp + 3) in
      if Array.unsafe_get tasks sp = 0 then step t op f g
      else begin
        let lvl = Array.unsafe_get tasks (sp + 4) in
        let r_lo = t.res.(t.res_sp - 1) and r_hi = t.res.(t.res_sp - 2) in
        t.res_sp <- t.res_sp - 2;
        let r = mk t lvl r_lo r_hi in
        cache_insert t op f g r;
        push_res t r
      end
    done;
    t.res_sp <- base_rp;
    t.res.(base_rp)
  with e ->
    t.task_sp <- base_sp;
    t.res_sp <- base_rp;
    raise e

let not_ t f = apply t op_not f f
let and_ t f g = apply t op_and f g
let or_ t f g = apply t op_or f g
let xor t f g = apply t op_xor f g

(* f ? g : h as (f & g) | (~f & h); ~a & b is 0b0010. *)
let ite t f g h = or_ t (and_ t f g) (apply t 0b0010 f h)

let rec eval t f env =
  if f = zero then false
  else if f = one then true
  else if env (t.levels.(f)) then eval t t.highs.(f) env
  else eval t t.lows.(f) env

(* Pre-order DFS (low child first), iterative so that diagrams deeper than
   the OCaml stack still enumerate. *)
let reachable t roots =
  let seen = Bytes.make (max t.next 2) '\000' in
  let order = ref [] in
  let rec loop = function
    | [] -> ()
    | n :: rest ->
      if Bytes.get seen n = '\001' then loop rest
      else begin
        Bytes.set seen n '\001';
        order := n :: !order;
        if is_terminal n then loop rest
        else loop (t.lows.(n) :: t.highs.(n) :: rest)
      end
  in
  loop roots;
  List.rev !order

let size t roots = List.length (reachable t roots)

let iter_edges t roots f =
  List.iter
    (fun n ->
       if not (is_terminal n) then begin
         f n t.lows.(n) false;
         f n t.highs.(n) true
       end)
    (reachable t roots)

let any_sat t f =
  if f = zero then None
  else
    let rec go f acc =
      if f = one then List.rev acc
      else
        let v = t.levels.(f) in
        if t.highs.(f) <> zero then go t.highs.(f) ((v, true) :: acc)
        else go t.lows.(f) ((v, false) :: acc)
    in
    Some (go f [])

let clear_caches t =
  Array.fill t.op_k1 0 (Array.length t.op_k1) (-1);
  t.cache_clean <- true

(* ------------------------------------------------------------------ *)
(* In-place dynamic reordering (adjacent-level exchange + Rudell
   sifting).

   An exchange of levels [i] and [i+1] rewrites only the nodes at those
   two levels, in place over the packed arrays: every handle keeps
   denoting the same Boolean function modulo the variable exchange, so
   root handles stay valid and the levels above and below are untouched.
   The caller receives the accumulated level permutation and re-maps
   whatever it keyed by level ([Sbdd] permutes its [input_order]).

   Case analysis for one exchange (upper = live nodes at level i, lower
   = live nodes at level i+1):

   - an upper node with no child at level i+1 ("independent") still
     tests the same variable, which now lives at level i+1: it is
     relabelled and rehashed, keeping its handle;
   - a dependent upper node [f = A ? f1 : f0] is restructured in place
     to test the other variable on top: [f = B ? (A ? f11 : f01)
     : (A ? f10 : f00)], its two fresh-or-shared children created at
     level i+1 through the unique table;
   - a lower node still referenced afterwards (from above level i, or a
     root) keeps its structure and moves to level i; one referenced only
     through the old cofactor edges dies: it is removed from the table,
     marked dead with level -1, and its slot is never reused —
     [rehash_unique] skips dead slots so a stale structure can never be
     resurrected.

   The session keeps the live nodes of every level in a list, so an
   exchange reads its two levels and nothing else; it rebuilds both
   lists from the case analysis above. Nodes die only on level i+1
   (see [swap_adjacent]), so no other level's list goes stale.

   The lossy apply cache mixes pre- and post-exchange meanings of dead
   handles, so a reordering session invalidates it (once per burst,
   counted in [cache_invalidations]).  Array and table growth happen
   before any node is touched, so the only allocation points (including
   the injected-OOM checkpoint) see a consistent diagram.

   The session's reference counts are seeded from [roots]; any handle
   not in the cone of [roots] is treated as garbage and invalidated. *)

type session = {
  m : t;
  mutable rc : int array;  (* per-handle refcounts, roots get +1 *)
  perm : int array;  (* perm.(lvl) = session-start level now living at lvl *)
  nodes : int list array;  (* nodes.(lvl) = the live nodes at lvl *)
  mutable live : int;  (* live internal nodes *)
}

(* Raw table insertion: the key is known absent, find the free slot. *)
let table_insert t n =
  let mask = t.table_mask in
  let i = ref (hash3 t.levels.(n) t.lows.(n) t.highs.(n) land mask) in
  while t.table.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  t.table.(!i) <- n

(* Backward-shift deletion for linear probing: after emptying n's slot,
   slide the rest of the cluster back so no probe sequence crosses a
   hole it should not. *)
let table_remove t n =
  let mask = t.table_mask in
  let i = ref (hash3 t.levels.(n) t.lows.(n) t.highs.(n) land mask) in
  while t.table.(!i) <> n do
    i := (!i + 1) land mask
  done;
  t.table.(!i) <- -1;
  let j = ref ((!i + 1) land mask) in
  while t.table.(!j) <> -1 do
    let m = t.table.(!j) in
    let home = hash3 t.levels.(m) t.lows.(m) t.highs.(m) land mask in
    if (!j - home) land mask >= (!j - !i) land mask then begin
      t.table.(!i) <- m;
      t.table.(!j) <- -1;
      i := !j
    end;
    j := (!j + 1) land mask
  done

let invalidate_for_reorder t =
  if not t.cache_clean then begin
    t.cache_invalidations <- t.cache_invalidations + 1;
    clear_caches t
  end

let open_session t roots =
  invalidate_for_reorder t;
  let rc = Array.make (Array.length t.levels) 0 in
  let mark = Bytes.make (max t.next 2) '\000' in
  let rec visit = function
    | [] -> ()
    | n :: rest ->
      if is_terminal n || Bytes.get mark n = '\001' then visit rest
      else begin
        Bytes.set mark n '\001';
        let lo = t.lows.(n) and hi = t.highs.(n) in
        if not (is_terminal lo) then rc.(lo) <- rc.(lo) + 1;
        if not (is_terminal hi) then rc.(hi) <- rc.(hi) + 1;
        visit (lo :: hi :: rest)
      end
  in
  visit roots;
  List.iter (fun r -> if not (is_terminal r) then rc.(r) <- rc.(r) + 1) roots;
  (* Table hygiene: drop allocated-but-unreachable nodes so an exchange
     can never find (and share) a stale structure through the table. *)
  let nodes = Array.make t.nvars [] in
  let live = ref 0 in
  for n = t.next - 1 downto 2 do
    if t.levels.(n) >= 0 then begin
      if Bytes.get mark n = '\001' then begin
        incr live;
        nodes.(t.levels.(n)) <- n :: nodes.(t.levels.(n))
      end
      else begin
        table_remove t n;
        t.levels.(n) <- -1
      end
    end
  done;
  { m = t; rc; perm = Array.init t.nvars (fun l -> l); nodes; live = !live }

(* Grow node arrays and unique table ahead of an exchange so nothing
   allocates (or hits the injected-OOM checkpoint) mid-rewrite. *)
let ensure_swap_capacity s extra =
  let t = s.m in
  while t.next + extra > Array.length t.levels do
    grow_nodes t
  done;
  while 4 * (t.next + extra - 2) > 3 * (t.table_mask + 1) do
    rehash_unique t
  done;
  if Array.length s.rc < Array.length t.levels then begin
    let bigger = Array.make (Array.length t.levels) 0 in
    Array.blit s.rc 0 bigger 0 (Array.length s.rc);
    s.rc <- bigger
  end

let swap_adjacent s i =
  let t = s.m in
  let upper = s.nodes.(i) and lower = s.nodes.(i + 1) in
  if upper <> [] || lower <> [] then begin
    ensure_swap_capacity s (2 * List.length upper);
    (* 1. Detach both levels: their keys are about to change, and a
       detached lower node cannot be found with its pre-exchange
       meaning while fresh children are interned. *)
    List.iter (fun n -> table_remove t n) upper;
    List.iter (fun n -> table_remove t n) lower;
    (* Drop a restructured node's reference to an old child. Only a
       lower node can lose its last reference, and its own children
       then survive: step 3 has just made each of them a child of a
       live level-(i+1) node, or of the restructured node itself, so no
       node dies off levels i and i+1. A dying lower node is already
       detached. *)
    let deref n =
      if not (is_terminal n) then begin
        s.rc.(n) <- s.rc.(n) - 1;
        if s.rc.(n) = 0 then begin
          s.live <- s.live - 1;
          t.levels.(n) <- -1;
          let lo = t.lows.(n) and hi = t.highs.(n) in
          if not (is_terminal lo) then s.rc.(lo) <- s.rc.(lo) - 1;
          if not (is_terminal hi) then s.rc.(hi) <- s.rc.(hi) - 1
        end
      end
    in
    (* 2. Independent upper nodes keep their variable, which now lives
       at level i+1. Moving them first lets step 3 share them. *)
    let dependent = ref [] and below = ref [] in
    List.iter
      (fun n ->
         let lo = t.lows.(n) and hi = t.highs.(n) in
         if t.levels.(lo) = i + 1 || t.levels.(hi) = i + 1 then
           dependent := n :: !dependent
         else begin
           t.levels.(n) <- i + 1;
           table_insert t n;
           below := n :: !below
         end)
      upper;
    let dependent = List.rev !dependent in
    (* Intern a level-(i+1) node for the restructuring, taking a
       reference. Capacity was assured above, so nothing allocates. *)
    let mk_swap lo hi =
      if lo = hi then begin
        if not (is_terminal lo) then s.rc.(lo) <- s.rc.(lo) + 1;
        lo
      end
      else begin
        t.unique_lookups <- t.unique_lookups + 1;
        let p = probe t (i + 1) lo hi (hash3 (i + 1) lo hi land t.table_mask) in
        if p < 0 then begin
          t.unique_hits <- t.unique_hits + 1;
          s.rc.(-p) <- s.rc.(-p) + 1;
          -p
        end
        else begin
          let n = t.next in
          t.next <- n + 1;
          t.levels.(n) <- i + 1;
          t.lows.(n) <- lo;
          t.highs.(n) <- hi;
          t.table.(p) <- n;
          s.rc.(n) <- 1;
          if not (is_terminal lo) then s.rc.(lo) <- s.rc.(lo) + 1;
          if not (is_terminal hi) then s.rc.(hi) <- s.rc.(hi) + 1;
          s.live <- s.live + 1;
          below := n :: !below;
          n
        end
      end
    in
    (* 3. Restructure dependent upper nodes in place: the handle stays,
       the node now tests the other variable on top. *)
    List.iter
      (fun n ->
         let f0 = t.lows.(n) and f1 = t.highs.(n) in
         let f00, f01 =
           if t.levels.(f0) = i + 1 then (t.lows.(f0), t.highs.(f0))
           else (f0, f0)
         and f10, f11 =
           if t.levels.(f1) = i + 1 then (t.lows.(f1), t.highs.(f1))
           else (f1, f1)
         in
         let g0 = mk_swap f00 f10 in
         let g1 = mk_swap f01 f11 in
         t.lows.(n) <- g0;
         t.highs.(n) <- g1;
         table_insert t n;
         deref f0;
         deref f1)
      dependent;
    (* 4. Lower nodes still referenced (crossing edges from above level
       i, or roots) keep their structure and move up to level i; the
       ones that died in step 3 are already marked. *)
    let above =
      List.fold_left
        (fun acc n ->
           if s.rc.(n) > 0 then begin
             t.levels.(n) <- i;
             table_insert t n;
             n :: acc
           end
           else acc)
        dependent lower
    in
    s.nodes.(i) <- above;
    s.nodes.(i + 1) <- !below
  end;
  let tmp = s.perm.(i) in
  s.perm.(i) <- s.perm.(i + 1);
  s.perm.(i + 1) <- tmp;
  t.level_swaps <- t.level_swaps + 1

(* A direction of exploration stops once the diagram exceeds this ratio
   of the best size seen; convergence stops after this many passes. *)
let max_growth = 1.2
let max_passes = 8

(* Sift the variable currently at level [l0] to its best position:
   down to the bottom, back up to the top, then settle on the smallest
   diagram seen (ties keep the position encountered first, which is
   deterministic). The budget is polled at swap boundaries and
   exhaustion stops the exploration (the settle phase always runs so
   the diagram lands in a consistent best-known spot). *)
let sift_var s ~budget l0 =
  let t = s.m in
  let nv = t.nvars in
  let best = ref s.live in
  let best_pos = ref l0 in
  let pos = ref l0 in
  let bound () =
    int_of_float (max_growth *. float_of_int !best) + 2
  in
  let explore step lo_limit hi_limit =
    try
      while !pos > lo_limit && !pos < hi_limit do
        if Resilience.Budget.exhausted budget then raise Exit;
        if step > 0 then begin
          swap_adjacent s !pos;
          incr pos
        end
        else begin
          swap_adjacent s (!pos - 1);
          decr pos
        end;
        if s.live < !best then begin
          best := s.live;
          best_pos := !pos
        end
        else if s.live > bound () then raise Exit
      done
    with Exit -> ()
  in
  explore 1 (-1) (nv - 1);
  explore (-1) 0 nv;
  while !pos < !best_pos do
    swap_adjacent s !pos;
    incr pos
  done;
  while !pos > !best_pos do
    swap_adjacent s (!pos - 1);
    decr pos
  done

let level_of_orig s orig =
  let rec find l = if s.perm.(l) = orig then l else find (l + 1) in
  find 0

let sift_pass s ~budget =
  let t = s.m in
  t.sift_passes <- t.sift_passes + 1;
  (* Process variables by live population of their current level,
     largest first; ties (and the whole order) break on the original
     variable index so a pass is deterministic. *)
  let weight =
    Array.init t.nvars (fun orig ->
        List.length s.nodes.(level_of_orig s orig))
  in
  let vars = Array.init t.nvars (fun orig -> orig) in
  Array.sort
    (fun a b ->
       if weight.(a) <> weight.(b) then compare weight.(b) weight.(a)
       else compare a b)
    vars;
  Array.iter
    (fun orig ->
       if weight.(orig) > 0 && not (Resilience.Budget.exhausted budget) then
         sift_var s ~budget (level_of_orig s orig))
    vars

let sift_to_convergence ?(budget = Resilience.Budget.unlimited) t roots =
  let s = open_session t roots in
  let prev = ref max_int in
  let passes = ref 0 in
  while
    s.live < !prev && !passes < max_passes
    && not (Resilience.Budget.exhausted budget)
  do
    prev := s.live;
    sift_pass s ~budget;
    incr passes
  done;
  s.perm
