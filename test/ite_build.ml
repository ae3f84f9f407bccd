(* The SBDD build as it was before Bryant's apply: a manager whose one
   recursive operation is a memoised if-then-else, with [not_], [and_],
   [or_] and [xor] as ITE calls, and the builder that compiles every
   [Not] and [Xor] through them. Kept verbatim, bar the parts no test
   reads (statistics counters, the node limit, the injected-OOM
   checkpoint, queries and reordering), as the oracle of test_bdd's
   oracle group: the apply-based build must give diagrams of the same
   size and canonical fingerprint. *)

module Manager = struct
  type node = int

  type t = {
    nvars : int;
    mutable levels : int array;
    mutable lows : int array;
    mutable highs : int array;
    mutable next : int;  (* next free handle *)
    (* open-addressed unique table; slots hold a node handle or -1 *)
    mutable table : int array;
    mutable table_mask : int;
    (* direct-mapped ITE cache; ite_k1 = -1 marks an empty slot *)
    mutable ite_k1 : int array;
    mutable ite_k2 : int array;
    mutable ite_k3 : int array;
    mutable ite_r : int array;
    mutable ite_mask : int;
    (* reusable worklist scratch: frames of [frame_slots] ints + a result
       stack *)
    mutable tasks : int array;
    mutable task_sp : int;
    mutable res : int array;
    mutable res_sp : int;
  }

  let zero = 0
  let one = 1
  let is_terminal n = n < 2

  let initial_table_size = 4096
  let initial_ite_size = 4096

  let create ~num_vars () =
    let cap = 1024 in
    let levels = Array.make cap max_int in
    let lows = Array.make cap (-1) in
    let highs = Array.make cap (-1) in
    {
      nvars = num_vars;
      levels;
      lows;
      highs;
      next = 2;
      table = Array.make initial_table_size (-1);
      table_mask = initial_table_size - 1;
      ite_k1 = Array.make initial_ite_size (-1);
      ite_k2 = Array.make initial_ite_size 0;
      ite_k3 = Array.make initial_ite_size 0;
      ite_r = Array.make initial_ite_size 0;
      ite_mask = initial_ite_size - 1;
      tasks = Array.make 320 0;
      task_sp = 0;
      res = Array.make 64 0;
      res_sp = 0;
    }

  (* Multiplicative triple mix; the low bits index the power-of-two
     tables. *)
  let hash3 a b c =
    let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA6B) lxor (c * 0xC2B2AE35) in
    let h = h lxor (h lsr 15) in
    h * 0x27D4EB2F

  let grow_nodes t =
    let cap = Array.length t.levels in
    let bigger a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.levels <- bigger t.levels max_int;
    t.lows <- bigger t.lows (-1);
    t.highs <- bigger t.highs (-1)

  let grow_ite_cache t size =
    if size > Array.length t.ite_r then begin
      let mask = size - 1 in
      let k1 = Array.make size (-1) in
      let k2 = Array.make size 0 in
      let k3 = Array.make size 0 in
      let r = Array.make size 0 in
      for i = 0 to Array.length t.ite_r - 1 do
        let f = t.ite_k1.(i) in
        if f <> -1 then begin
          let j = hash3 f t.ite_k2.(i) t.ite_k3.(i) land mask in
          k1.(j) <- f;
          k2.(j) <- t.ite_k2.(i);
          k3.(j) <- t.ite_k3.(i);
          r.(j) <- t.ite_r.(i)
        end
      done;
      t.ite_k1 <- k1;
      t.ite_k2 <- k2;
      t.ite_k3 <- k3;
      t.ite_r <- r;
      t.ite_mask <- mask
    end

  let rehash_unique t =
    let size = 2 * (t.table_mask + 1) in
    let mask = size - 1 in
    let table = Array.make size (-1) in
    for n = 2 to t.next - 1 do
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
    grow_ite_cache t (size / 2)

  let rec probe t lvl lo hi i =
    let n = Array.unsafe_get t.table i in
    if n = -1 then i
    else if
      Array.unsafe_get t.levels n = lvl
      && Array.unsafe_get t.lows n = lo
      && Array.unsafe_get t.highs n = hi
    then -n
    else probe t lvl lo hi ((i + 1) land t.table_mask)

  let mk t lvl lo hi =
    if lo = hi then lo
    else begin
      let p = probe t lvl lo hi (hash3 lvl lo hi land t.table_mask) in
      if p < 0 then -p
      else begin
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
  let low t n = t.lows.(n)
  let high t n = t.highs.(n)

  let var t i =
    if i < 0 || i >= t.nvars then invalid_arg "Ite_build.Manager.var";
    mk t i zero one

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

  let ite_cached t f g h =
    let i = hash3 f g h land t.ite_mask in
    if
      Array.unsafe_get t.ite_k1 i = f
      && Array.unsafe_get t.ite_k2 i = g
      && Array.unsafe_get t.ite_k3 i = h
    then Array.unsafe_get t.ite_r i
    else -1

  let ite_insert t f g h r =
    let i = hash3 f g h land t.ite_mask in
    t.ite_k1.(i) <- f;
    t.ite_k2.(i) <- g;
    t.ite_k3.(i) <- h;
    t.ite_r.(i) <- r

  let ite t f0 g0 h0 =
    let base_sp = t.task_sp and base_rp = t.res_sp in
    try
      push_task t 0 f0 g0 h0 0;
      while t.task_sp > base_sp do
        let sp = t.task_sp - frame_slots in
        t.task_sp <- sp;
        let tasks = t.tasks in
        let tag = Array.unsafe_get tasks sp in
        let f = Array.unsafe_get tasks (sp + 1) in
        let g = Array.unsafe_get tasks (sp + 2) in
        let h = Array.unsafe_get tasks (sp + 3) in
        if tag = 0 then begin
          (* Terminal cases. *)
          if f = one then push_res t g
          else if f = zero then push_res t h
          else if g = h then push_res t g
          else if g = one && h = zero then push_res t f
          else begin
            let r = ite_cached t f g h in
            if r >= 0 then push_res t r
            else begin
              let lf = t.levels.(f) and lg = t.levels.(g) and lh = t.levels.(h) in
              let lvl = min lf (min lg lh) in
              let f0 = if lf = lvl then t.lows.(f) else f
              and f1 = if lf = lvl then t.highs.(f) else f
              and g0 = if lg = lvl then t.lows.(g) else g
              and g1 = if lg = lvl then t.highs.(g) else g
              and h0 = if lh = lvl then t.lows.(h) else h
              and h1 = if lh = lvl then t.highs.(h) else h in
              push_task t 1 f g h lvl;
              push_task t 0 f0 g0 h0 0;
              (* the then-branch sits on top, so it is evaluated first *)
              push_task t 0 f1 g1 h1 0
            end
          end
        end
        else begin
          let lvl = Array.unsafe_get tasks (sp + 4) in
          let r_lo = t.res.(t.res_sp - 1) and r_hi = t.res.(t.res_sp - 2) in
          t.res_sp <- t.res_sp - 2;
          let r = mk t lvl r_lo r_hi in
          ite_insert t f g h r;
          push_res t r
        end
      done;
      t.res_sp <- base_rp;
      t.res.(base_rp)
    with e ->
      t.task_sp <- base_sp;
      t.res_sp <- base_rp;
      raise e

  let not_ t f = ite t f zero one
  let and_ t f g = ite t f g zero
  let or_ t f g = ite t f one g
  let xor t f g = ite t f (not_ t g) g

  (* Pre-order DFS (low child first), iterative so that diagrams deeper
     than the OCaml stack still enumerate. *)
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
end

let expr_with_env man ~env e =
  let rec go e =
    match (e : Logic.Expr.t) with
    | Const true -> Manager.one
    | Const false -> Manager.zero
    | Var v -> env v
    | Not e -> Manager.not_ man (go e)
    | And es ->
      List.fold_left (fun acc e -> Manager.and_ man acc (go e)) Manager.one es
    | Or es ->
      List.fold_left (fun acc e -> Manager.or_ man acc (go e)) Manager.zero es
    | Xor (a, b) -> Manager.xor man (go a) (go b)
  in
  go e

type t = {
  man : Manager.t;
  input_order : string array;
  roots : (string * Manager.node) list;
}

let build_roots man ~levels (nl : Logic.Netlist.t) =
  let values = Hashtbl.create 64 in
  List.iter
    (fun v -> Hashtbl.replace values v (Manager.var man (Hashtbl.find levels v)))
    nl.inputs;
  let env w = Hashtbl.find values w in
  List.iter
    (fun (node : Logic.Netlist.node) ->
       Hashtbl.replace values node.wire (expr_with_env man ~env node.func))
    nl.nodes;
  List.map (fun o -> o, env o) nl.outputs

(* [Sbdd.of_netlist] at the default order. *)
let of_netlist (nl : Logic.Netlist.t) =
  let order = Bdd.Order.dfs_fanin nl in
  let man = Manager.create ~num_vars:(List.length order) () in
  let levels = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace levels v i) order;
  let roots = build_roots man ~levels nl in
  { man; input_order = Array.of_list order; roots }

let size t = Manager.size t.man (List.map snd t.roots)

let fingerprint t =
  Boxed_fingerprint.canonical
    ~reachable:(Manager.reachable t.man)
    ~is_terminal:Manager.is_terminal ~level:(Manager.level t.man)
    ~low:(Manager.low t.man) ~high:(Manager.high t.man) t.input_order
    t.roots
