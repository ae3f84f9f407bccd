(* [Server.Fingerprint.sbdd] and [key] as they were before the unboxed
   hash: FNV-1a on an [Int64] per byte, discovery ids in a [Hashtbl].
   Kept verbatim, bar [canonical], which reads the diagram through
   accessor functions so that it also hashes [Ite_build]'s manager, as
   the oracle of test_bdd's oracle group: keys stored in a durable
   cache must not move. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_int h n =
  (* Mix all 63 bits, low byte first. *)
  let rec go h n i =
    if i = 8 then h else go (fnv_byte h (n lsr (8 * i))) n (i + 1)
  in
  go h n 0

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  (* A length terminator keeps concatenated strings unambiguous. *)
  fnv_int !h (String.length s)

let hex h = Printf.sprintf "%016Lx" h

let canonical ~reachable ~is_terminal ~level ~low ~high input_order named =
  let roots = List.map snd named in
  let order = reachable roots in
  let id = Hashtbl.create (List.length order) in
  List.iteri (fun i n -> Hashtbl.replace id n i) order;
  let h = ref fnv_offset in
  Array.iter (fun name -> h := fnv_string !h name) input_order;
  List.iter
    (fun n ->
       if is_terminal n then h := fnv_int !h (-1 - n)
       else begin
         h := fnv_int !h (level n);
         h := fnv_int !h (Hashtbl.find id (low n));
         h := fnv_int !h (Hashtbl.find id (high n))
       end)
    order;
  List.iter
    (fun (name, root) ->
       h := fnv_string !h name;
       h := fnv_int !h (Hashtbl.find id root))
    named;
  hex !h

let sbdd (s : Bdd.Sbdd.t) =
  let man = s.Bdd.Sbdd.man in
  canonical
    ~reachable:(Bdd.Manager.reachable man)
    ~is_terminal:Bdd.Manager.is_terminal ~level:(Bdd.Manager.level man)
    ~low:(Bdd.Manager.low man) ~high:(Bdd.Manager.high man)
    s.Bdd.Sbdd.input_order s.Bdd.Sbdd.roots

let key ~options:o s =
  let h = fnv_string fnv_offset Server.Version.engine in
  let h = fnv_string h (Server.Fingerprint.options o) in
  let h = fnv_string h (sbdd s) in
  hex h
