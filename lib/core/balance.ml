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
  (* Per component: nodes of each colour, and the aligned nodes (terminal
     and roots) of each colour that survive in the residual. *)
  let count0 = Array.make k 0 and count1 = Array.make k 0 in
  for v = 0 to n - 1 do
    let c = r.comp.(v) in
    if c >= 0 then
      if r.color.(v) = 0 then count0.(c) <- count0.(c) + 1
      else count1.(c) <- count1.(c) + 1
  done;
  let aligned0 = Array.make k [] and aligned1 = Array.make k [] in
  if alignment then
    List.iter
      (fun v ->
         let c = r.comp.(v) in
         if c < 0 then ()
         else if r.color.(v) = 0 then aligned0.(c) <- v :: aligned0.(c)
         else aligned1.(c) <- v :: aligned1.(c))
      (List.sort_uniq compare
         (bg.terminal
          :: List.filter_map
               (fun (_, root) ->
                  match root with
                  | Types.Node v -> Some v
                  | Types.Const_false -> None)
               bg.roots));
  (* Resolve alignment conflicts inside a component by upgrading the
     minority side's aligned nodes to VH; they then count on neither
     side. *)
  let upgraded = ref [] in
  for c = 0 to k - 1 do
    if aligned0.(c) <> [] && aligned1.(c) <> [] then
      if List.length aligned0.(c) <= List.length aligned1.(c) then begin
        upgraded := List.rev_append aligned0.(c) !upgraded;
        count0.(c) <- count0.(c) - List.length aligned0.(c);
        aligned0.(c) <- []
      end
      else begin
        upgraded := List.rev_append aligned1.(c) !upgraded;
        count1.(c) <- count1.(c) - List.length aligned1.(c);
        aligned1.(c) <- []
      end
  done;
  (* Contribution of a component to rows − cols: an unflipped component
     maps colour 0 to H, a flipped one colour 1. VH nodes add 1 to both
     rows and cols, so they do not count. Forced components (holding
     aligned nodes) are oriented so the aligned colour becomes H; free
     components enter the DP. *)
  let flips = Array.make k false in
  let base = ref 0 in
  let free = ref [] in
  for c = k - 1 downto 0 do
    let delta = count0.(c) - count1.(c) in
    if aligned0.(c) <> [] then base := !base + delta
    else if aligned1.(c) <> [] then begin
      flips.(c) <- true;
      base := !base - delta
    end
    else free := c :: !free
  done;
  let free = Array.of_list !free in
  if balance then begin
    let signs =
      choose_signs ~base:!base
        (Array.map (fun c -> count0.(c) - count1.(c)) free)
    in
    Array.iteri (fun i c -> flips.(c) <- signs.(i) < 0) free
  end;
  (* Colour 0 → H unless the component is flipped. *)
  let labels =
    Array.init n (fun v ->
        let c = r.comp.(v) in
        if c < 0 then Types.VH
        else if r.color.(v) = 0 <> flips.(c) then Types.H
        else Types.V)
  in
  List.iter (fun v -> labels.(v) <- Types.VH) !upgraded;
  labels
