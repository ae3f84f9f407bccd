let exact_dp_limit = 5_000_000

(* The DP's sets of partial sums are bitsets, [Sys.int_size] bits to a
   word. [lsl] and [lsr] act on all of an OCaml int's bits, and a shift
   by [Sys.int_size] gives 0. *)
let bits = Sys.int_size

let mem set s = (set.(s / bits) lsr (s mod bits)) land 1 = 1

(* [dst] ∪= [src] shifted up by [by] bits, or down when [by] is
   negative. *)
let or_shifted dst src by =
  let words = Array.length src in
  let word j = if j >= 0 && j < words then src.(j) else 0 in
  let q = abs by / bits and r = abs by mod bits in
  for j = 0 to words - 1 do
    let w =
      if by >= 0 then (word (j - q) lsl r) lor (word (j - q - 1) lsr (bits - r))
      else (word (j + q) lsr r) lor (word (j + q + 1) lsl (bits - r))
    in
    dst.(j) <- dst.(j) lor w
  done

let choose_signs ~base deltas =
  let k = Array.length deltas in
  let total = Array.fold_left (fun acc d -> acc + abs d) 0 deltas in
  let range = (2 * total) + 1 in
  if k = 0 then [||]
  else if k * range <= exact_dp_limit then begin
    (* reach.(i) is the set of partial sums of the first i signed deltas,
       offset by [total]. *)
    let words = (range + bits - 1) / bits in
    let reach = Array.init (k + 1) (fun _ -> Array.make words 0) in
    reach.(0).(total / bits) <- 1 lsl (total mod bits);
    for i = 0 to k - 1 do
      or_shifted reach.(i + 1) reach.(i) deltas.(i);
      or_shifted reach.(i + 1) reach.(i) (-deltas.(i))
    done;
    (* Closest achievable sum to −base (so that base + sum ≈ 0). *)
    let target = -base + total in
    let best = ref (-1) in
    for s = 0 to range - 1 do
      if
        mem reach.(k) s
        && (!best < 0 || abs (s - target) < abs (!best - target))
      then best := s
    done;
    (* Walk back. The parent of [s] is [s − |d|] when that sum was
       reachable a step earlier, else [s + |d|]: the first parent an
       ascending scan of the earlier set reaches [s] from. *)
    let signs = Array.make k 1 in
    let s = ref !best in
    for i = k - 1 downto 0 do
      let d = abs deltas.(i) in
      let prev =
        if !s - d >= 0 && mem reach.(i) (!s - d) then !s - d else !s + d
      in
      signs.(i) <- (if !s - prev = deltas.(i) then 1 else -1);
      s := prev
    done;
    signs
  end
  else begin
    (* Greedy: largest |delta| first, pick the sign that shrinks the sum. *)
    let order = Array.init k (fun i -> i) in
    Array.sort (fun a b -> compare (abs deltas.(b)) (abs deltas.(a))) order;
    let signs = Array.make k 1 in
    let sum = ref base in
    Array.iter
      (fun i ->
         if abs (!sum + deltas.(i)) <= abs (!sum - deltas.(i)) then begin
           signs.(i) <- 1;
           sum := !sum + deltas.(i)
         end
         else begin
           signs.(i) <- -1;
           sum := !sum - deltas.(i)
         end)
      order;
    signs
  end

(* The terminal and the root nodes: the nodes Eq 7 puts on wordlines. *)
let aligned_nodes (bg : Types.bdd_graph) =
  List.sort_uniq compare
    (bg.terminal
     :: List.filter_map
          (fun (_, root) ->
             match root with
             | Types.Node v -> Some v
             | Types.Const_false -> None)
          bg.roots)

(* How a residual component enters the balance: free components are
   flipped by the sign DP; forced ones are flipped or not so that their
   aligned nodes become H. Either way with [delta] = its colour-0 minus
   its colour-1 nodes, VH nodes left out. *)
type entry = Free of int | Forced of bool * int

(* The rule for one residual component, shared by [orient] and the
   upgrade index, from its nodes ([n0], [n1]) and aligned nodes ([a0],
   [a1]) of each colour, colour 0 being its smallest node's. Aligned nodes
   of both colours conflict, since no flip puts both on H: the smaller
   aligned side, colour 0 on a tie, is upgraded to VH and leaves its
   colour's count. Returns the upgraded colour (-1 for none) and the
   entry. *)
let component_rule ~n0 ~n1 ~a0 ~a1 =
  if a0 > 0 && a1 > 0 then
    if a0 <= a1 then 0, Forced (true, n0 - a0 - n1)
    else 1, Forced (false, n0 - (n1 - a1))
  else if a0 > 0 then -1, Forced (false, n0 - n1)
  else if a1 > 0 then -1, Forced (true, n0 - n1)
  else -1, Free (n0 - n1)

(* A component's contribution to rows − cols: an unflipped component
   maps colour 0 to H, a flipped one colour 1. VH nodes add 1 to both
   rows and cols, so they do not count. *)
let contribution flipped delta = if flipped then -delta else delta

let orient ?(alignment = false) ?(balance = true) (bg : Types.bdd_graph)
    ~transversal =
  let n = Graphs.Ugraph.num_nodes bg.graph in
  if Array.length transversal <> n then
    invalid_arg "Balance.orient: arity mismatch";
  let (r : Graphs.Bipartite.residual) =
    match
      Graphs.Bipartite.residual bg.graph ~keep:(Array.map not transversal)
    with
    | Some r -> r
    | None -> invalid_arg "Balance.orient: the residual has an odd cycle"
  in
  let k = r.num_comps in
  (* Per component [c] and colour [b], at [2c + b]: its nodes, and its
     aligned nodes (terminal and roots) that survive in the residual. *)
  let count = Array.make (2 * k) 0 and aligned = Array.make (2 * k) 0 in
  let slot v = (2 * r.comp.(v)) + r.color.(v) in
  for v = 0 to n - 1 do
    if r.comp.(v) >= 0 then count.(slot v) <- count.(slot v) + 1
  done;
  let aligned_nodes = if alignment then aligned_nodes bg else [] in
  List.iter
    (fun v -> if r.comp.(v) >= 0 then aligned.(slot v) <- aligned.(slot v) + 1)
    aligned_nodes;
  let rules =
    Array.init k (fun c ->
        component_rule ~n0:count.(2 * c) ~n1:count.((2 * c) + 1)
          ~a0:aligned.(2 * c) ~a1:aligned.((2 * c) + 1))
  in
  let flips = Array.make k false in
  let base = ref 0 in
  let free = ref [] in
  for c = k - 1 downto 0 do
    match snd rules.(c) with
    | Forced (flipped, delta) ->
      flips.(c) <- flipped;
      base := !base + contribution flipped delta
    | Free delta -> free := (c, delta) :: !free
  done;
  let free = Array.of_list !free in
  if balance then begin
    let signs = choose_signs ~base:!base (Array.map snd free) in
    Array.iteri (fun i (c, _) -> flips.(c) <- signs.(i) < 0) free
  end;
  (* Colour 0 → H unless the component is flipped; a conflict's upgraded
     side is VH. *)
  let labels =
    Array.init n (fun v ->
        let c = r.comp.(v) in
        if c < 0 then Types.VH
        else if r.color.(v) = 0 <> flips.(c) then Types.H
        else Types.V)
  in
  List.iter
    (fun v ->
       let c = r.comp.(v) in
       if c >= 0 && fst rules.(c) = r.color.(v) then labels.(v) <- Types.VH)
    aligned_nodes;
  labels

(* Removing a node v splits its residual component into the subtrees of
   v's DFS children w with [low w >= disc v], which no back edge ties to
   v's ancestors, and the rest: the side of v's parent, empty when v is
   the root (Hopcroft & Tarjan's articulation points). Subtree sums of
   nodes and aligned nodes per colour, with the subtree's smallest node,
   count each piece in O(1). The DFS enters each component at its
   smallest node, so the depth parity is [orient]'s canonical colour. *)
type upgrade_index = {
  graph : Graphs.Ugraph.t;
  comp : int array;  (* -1 on the transversal *)
  color : int array;
  disc : int array;
  low : int array;
  parent : int array;  (* -1 at a component's root *)
  is_aligned : bool array;
  sub : int array;  (* nodes of colour b in v's subtree, at [2v + b] *)
  sub_aligned : int array;  (* aligned ones, likewise *)
  sub_min : int array;  (* the smallest node in v's subtree *)
  root : int array;  (* per component: its smallest node *)
  free_slot : int array;  (* per component: its place in [free], or -1 *)
  free : int array;  (* the free components' deltas *)
  vh : int;  (* [orient]'s VH count at this transversal *)
  base : int;  (* the forced components' contributions, summed *)
}

(* [component_rule] as counts: the aligned nodes it upgrades to VH, and
   the entry. *)
let settle ~n0 ~n1 ~a0 ~a1 =
  let up, entry = component_rule ~n0 ~n1 ~a0 ~a1 in
  (if up = 0 then a0 else if up = 1 then a1 else 0), entry

(* The component whose DFS root is [r], settled. *)
let settle_root ~sub ~sub_aligned r =
  settle ~n0:sub.(2 * r) ~n1:sub.((2 * r) + 1) ~a0:sub_aligned.(2 * r)
    ~a1:sub_aligned.((2 * r) + 1)

let upgrade_index ?(alignment = false) (bg : Types.bdd_graph) ~transversal =
  let g = bg.graph in
  let n = Graphs.Ugraph.num_nodes g in
  if Array.length transversal <> n then
    invalid_arg "Balance.upgrade_index: arity mismatch";
  let is_aligned = Array.make n false in
  if alignment then
    List.iter (fun v -> is_aligned.(v) <- true) (aligned_nodes bg);
  let comp = Array.make n (-1) and color = Array.make n 0 in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let parent = Array.make n (-1) and sub_min = Array.make n 0 in
  let sub = Array.make (2 * n) 0 and sub_aligned = Array.make (2 * n) 0 in
  (* The DFS stack, and each stacked node's neighbours still to scan. *)
  let stack = Array.make n 0 and pending = Array.make n [] in
  let roots = ref [] and k = ref 0 and time = ref 0 in
  let enter v p =
    comp.(v) <- !k;
    parent.(v) <- p;
    color.(v) <- (if p < 0 then 0 else 1 - color.(p));
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time;
    sub.((2 * v) + color.(v)) <- 1;
    if is_aligned.(v) then sub_aligned.((2 * v) + color.(v)) <- 1;
    sub_min.(v) <- v;
    pending.(v) <- Graphs.Ugraph.neighbors g v
  in
  for s = 0 to n - 1 do
    if (not transversal.(s)) && disc.(s) < 0 then begin
      roots := s :: !roots;
      enter s (-1);
      stack.(0) <- s;
      let top = ref 0 in
      while !top >= 0 do
        let u = stack.(!top) in
        match pending.(u) with
        | w :: rest ->
          pending.(u) <- rest;
          if transversal.(w) then ()
          else if disc.(w) < 0 then begin
            enter w u;
            incr top;
            stack.(!top) <- w
          end
          else if color.(w) = color.(u) then
            invalid_arg "Balance.upgrade_index: the residual has an odd cycle"
          else low.(u) <- min low.(u) disc.(w)
        | [] ->
          decr top;
          let p = parent.(u) in
          if p >= 0 then begin
            low.(p) <- min low.(p) low.(u);
            for b = 0 to 1 do
              sub.((2 * p) + b) <- sub.((2 * p) + b) + sub.((2 * u) + b);
              sub_aligned.((2 * p) + b) <-
                sub_aligned.((2 * p) + b) + sub_aligned.((2 * u) + b)
            done;
            sub_min.(p) <- min sub_min.(p) sub_min.(u)
          end
      done;
      incr k
    end
  done;
  let root = Array.of_list (List.rev !roots) in
  let free_slot = Array.make !k (-1) and free = ref [] and nfree = ref 0 in
  let vh = ref 0 and base = ref 0 in
  Array.iter (fun t -> if t then incr vh) transversal;
  Array.iteri
    (fun c r ->
       let upgraded, entry = settle_root ~sub ~sub_aligned r in
       vh := !vh + upgraded;
       match entry with
       | Forced (flipped, delta) -> base := !base + contribution flipped delta
       | Free delta ->
         free_slot.(c) <- !nfree;
         incr nfree;
         free := delta :: !free)
    root;
  {
    graph = g; comp; color; disc; low; parent; is_aligned; sub; sub_aligned;
    sub_min; root; free_slot; free = Array.of_list (List.rev !free);
    vh = !vh; base = !base;
  }

let score t v =
  let c = t.comp.(v) in
  if c < 0 then invalid_arg "Balance.score: the node is in the transversal";
  (* The residual without v's component, plus v as VH; then each piece
     of that component without v. *)
  let r = t.root.(c) in
  let upgraded, entry = settle_root ~sub:t.sub ~sub_aligned:t.sub_aligned r in
  let vh = ref (t.vh + 1 - upgraded) in
  let base =
    ref
      (match entry with
       | Forced (flipped, delta) -> t.base - contribution flipped delta
       | Free _ -> t.base)
  in
  let pieces = ref [] in
  (* A piece's counts come in the component's colours; its own colour 0
     is its smallest node's. *)
  let piece ~smallest n0 n1 a0 a1 =
    let upgraded, entry =
      if t.color.(smallest) = 0 then settle ~n0 ~n1 ~a0 ~a1
      else settle ~n0:n1 ~n1:n0 ~a0:a1 ~a1:a0
    in
    vh := !vh + upgraded;
    match entry with
    | Forced (flipped, delta) -> base := !base + contribution flipped delta
    | Free delta -> pieces := delta :: !pieces
  in
  (* The rest: the component without v and the subtrees cut off. *)
  let own b = if t.color.(v) = b then 1 else 0 in
  let own_aligned b = if t.is_aligned.(v) then own b else 0 in
  let rest0 = ref (t.sub.(2 * r) - own 0)
  and rest1 = ref (t.sub.((2 * r) + 1) - own 1)
  and rest_a0 = ref (t.sub_aligned.(2 * r) - own_aligned 0)
  and rest_a1 = ref (t.sub_aligned.((2 * r) + 1) - own_aligned 1) in
  Graphs.Ugraph.iter_neighbors
    (fun w ->
       if t.parent.(w) = v && t.low.(w) >= t.disc.(v) then begin
         let n0 = t.sub.(2 * w) and n1 = t.sub.((2 * w) + 1) in
         let a0 = t.sub_aligned.(2 * w) and a1 = t.sub_aligned.((2 * w) + 1) in
         rest0 := !rest0 - n0;
         rest1 := !rest1 - n1;
         rest_a0 := !rest_a0 - a0;
         rest_a1 := !rest_a1 - a1;
         piece ~smallest:t.sub_min.(w) n0 n1 a0 a1
       end)
    t.graph v;
  if t.parent.(v) >= 0 then piece ~smallest:r !rest0 !rest1 !rest_a0 !rest_a1;
  (* The free deltas: the index's without v's component, then the
     pieces'. Only their multiset matters to the balance reached. *)
  let slot = t.free_slot.(c) in
  let kept = Array.length t.free - if slot >= 0 then 1 else 0 in
  let deltas = Array.make (kept + List.length !pieces) 0 in
  if slot < 0 then Array.blit t.free 0 deltas 0 kept
  else begin
    Array.blit t.free 0 deltas 0 slot;
    Array.blit t.free (slot + 1) deltas slot (kept - slot)
  end;
  List.iteri (fun i d -> deltas.(kept + i) <- d) (List.rev !pieces);
  let signs = choose_signs ~base:!base deltas in
  let diff = ref !base in
  Array.iteri (fun i s -> diff := !diff + (s * deltas.(i))) signs;
  let s = Graphs.Ugraph.num_nodes t.graph + !vh in
  s, (s + abs !diff) / 2
