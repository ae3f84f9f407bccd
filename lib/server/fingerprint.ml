(* FNV-1a over the canonical form of the diagram.  The 64-bit state is
   kept as two 32-bit halves in native ints, so the hash is identical on
   every host word size and no step allocates.  The prime 0x100000001b3
   is 2^40 + 0x1b3, so a multiply is one small product per half plus the
   low half shifted into the high one. *)

type state = { mutable hi : int; mutable lo : int }

let fresh () = { hi = 0xcbf29ce4; lo = 0x84222325 }

(* Mix the eight low bytes of each of [count] ints, low byte first: one
   [int] for [count] 1, a node's (level, low, high) for 3. *)
let ints st count a b c =
  let hi = ref st.hi and lo = ref st.lo in
  for k = 0 to (8 * count) - 1 do
    let v = if k < 8 then a else if k < 16 then b else c in
    let x = !lo lxor ((v lsr (8 * (k land 7))) land 0xff) in
    let m = x * 0x1b3 in
    hi := ((!hi * 0x1b3) + (m lsr 32) + (x lsl 8)) land 0xffffffff;
    lo := m land 0xffffffff
  done;
  st.hi <- !hi;
  st.lo <- !lo

let int st n = ints st 1 n 0 0

let string st s =
  let hi = ref st.hi and lo = ref st.lo in
  for i = 0 to String.length s - 1 do
    let x = !lo lxor Char.code (String.unsafe_get s i) in
    let m = x * 0x1b3 in
    hi := ((!hi * 0x1b3) + (m lsr 32) + (x lsl 8)) land 0xffffffff;
    lo := m land 0xffffffff
  done;
  st.hi <- !hi;
  st.lo <- !lo;
  (* A length terminator keeps concatenated strings unambiguous. *)
  int st (String.length s)

let hex st = Printf.sprintf "%08x%08x" st.hi st.lo

let sbdd (s : Bdd.Sbdd.t) =
  let man = s.Bdd.Sbdd.man in
  let roots = List.map snd s.Bdd.Sbdd.roots in
  (* Canonical ids: position in depth-first discovery order from the
     roots.  Handle values themselves are allocation-order artifacts and
     never enter the hash. *)
  let order = Bdd.Manager.reachable man roots in
  let id = Array.make (Bdd.Manager.allocated man) 0 in
  List.iteri (fun i n -> id.(n) <- i) order;
  let st = fresh () in
  Array.iter (string st) s.Bdd.Sbdd.input_order;
  List.iter
    (fun n ->
       if Bdd.Manager.is_terminal n then
         (* Terminals hash as themselves: handle 0 / 1 are canonical. *)
         int st (-1 - n)
       else
         ints st 3 (Bdd.Manager.level man n)
           id.(Bdd.Manager.low man n)
           id.(Bdd.Manager.high man n))
    order;
  List.iter
    (fun (name, root) ->
       string st name;
       int st id.(root))
    s.Bdd.Sbdd.roots;
  hex st

let options (o : Compact.Pipeline.options) =
  let opt_int = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf "gamma=%.9g solver=%s alignment=%b time_limit=%.9g \
                  bdd_node_limit=%d max_rows=%s max_cols=%s"
    o.Compact.Pipeline.gamma
    (Compact.Pipeline.solver_name o.Compact.Pipeline.solver)
    o.Compact.Pipeline.alignment o.Compact.Pipeline.time_limit
    o.Compact.Pipeline.bdd_node_limit
    (opt_int o.Compact.Pipeline.max_rows)
    (opt_int o.Compact.Pipeline.max_cols)

let key ~options:o s =
  let st = fresh () in
  string st Version.engine;
  string st (options o);
  string st (sbdd s);
  hex st
