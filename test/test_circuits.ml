(* Tests for the benchmark-circuit generators: each circuit is checked
   against an independent OCaml reference implementation on random (or
   exhaustive) input points. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

(* Evaluate a netlist on an integer-encoded input point (bit i of [bits]
   feeds input i in declaration order) and decode selected outputs as an
   integer (little-endian over the listed names). *)
let eval_bits (nl : Logic.Netlist.t) bits =
  let inputs = Array.of_list nl.inputs in
  let point = Array.init (Array.length inputs) (fun i -> bits land (1 lsl i) <> 0) in
  let out = Logic.Netlist.eval_point nl point in
  let names = Array.of_list nl.outputs in
  fun selected ->
    List.fold_left
      (fun acc (k, name) ->
         let rec idx i = if names.(i) = name then i else idx (i + 1) in
         if out.(idx 0) then acc lor (1 lsl k) else acc)
      0
      (List.mapi (fun k name -> k, name) selected)

let bit_of (nl : Logic.Netlist.t) bits name =
  (eval_bits nl bits) [ name ] = 1

let int_gen bits = QCheck2.Gen.(int_bound ((1 lsl bits) - 1))

(* ------------------------------------------------------------------ *)

let adder4 = lazy (Circuits.Arith.ripple_adder ~bits:4 ())
let sub4 = lazy (Circuits.Arith.subtractor ~bits:4 ())
let cmp4 = lazy (Circuits.Arith.comparator ~bits:4 ())
let inc4 = lazy (Circuits.Arith.incrementer ~bits:4 ())
let alu4 = lazy (Circuits.Arith.alu ~bits:4 ())
let aluf4 = lazy (Circuits.Arith.alu_with_flags ~bits:4 ())
let addcmp4 = lazy (Circuits.Arith.adder_comparator ~bits:4 ())

let sum_names bits prefix = List.init bits (fun i -> Printf.sprintf "%s%d" prefix i)

let arith_tests =
  [
    qcheck_case "ripple adder adds"
      QCheck2.Gen.(pair (int_gen 4) (int_gen 4))
      (fun (a, b) ->
         let nl = Lazy.force adder4 in
         let bits = a lor (b lsl 4) in
         let decode = eval_bits nl bits in
         decode (sum_names 4 "add_s" @ [ "add_c4" ]) = a + b);
    qcheck_case "subtractor subtracts (two's complement)"
      QCheck2.Gen.(pair (int_gen 4) (int_gen 4))
      (fun (a, b) ->
         let nl = Lazy.force sub4 in
         let bits = a lor (b lsl 4) in
         let decode = eval_bits nl bits in
         let diff = decode (sum_names 4 "sub_s") in
         let borrow = bit_of nl bits "borrow" in
         diff = (a - b) land 15 && borrow = (a < b));
    qcheck_case "comparator orders"
      QCheck2.Gen.(pair (int_gen 4) (int_gen 4))
      (fun (a, b) ->
         let nl = Lazy.force cmp4 in
         let bits = a lor (b lsl 4) in
         bit_of nl bits "eq" = (a = b)
         && bit_of nl bits "lt" = (a < b)
         && bit_of nl bits "gt" = (a > b));
    qcheck_case "incrementer adds one" (int_gen 4) (fun a ->
        let nl = Lazy.force inc4 in
        let decode = eval_bits nl a in
        decode (sum_names 4 "s" @ [ "c4" ]) = a + 1);
    Alcotest.test_case "majority threshold" `Quick (fun () ->
        let nl = Circuits.Arith.majority ~width:5 () in
        let popcount bits =
          let c = ref 0 in
          for i = 0 to 4 do
            if bits land (1 lsl i) <> 0 then incr c
          done;
          !c
        in
        for bits = 0 to 31 do
          check tb
            (Printf.sprintf "bits=%d" bits)
            (popcount bits >= 3)
            (bit_of nl bits "maj")
        done);
    qcheck_case "alu opcodes"
      QCheck2.Gen.(triple (int_gen 4) (int_gen 4) (int_gen 3))
      (fun (a, b, opcin) ->
         let nl = Lazy.force alu4 in
         let op = opcin land 3 and cin = (opcin lsr 2) land 1 in
         let bits = a lor (b lsl 4) lor (cin lsl 8) lor (op lsl 9) in
         let decode = eval_bits nl bits in
         let result = decode (sum_names 4 "r") in
         let expected =
           match op with
           | 0 -> a land b
           | 1 -> a lor b
           | 2 -> a lxor b
           | _ -> (a + b + cin) land 15
         in
         result = expected
         && bit_of nl bits "zflag" = (expected = 0));
    qcheck_case "alu_with_flags opcodes"
      QCheck2.Gen.(triple (int_gen 4) (int_gen 4) (int_gen 3))
      (fun (a, b, op) ->
         let nl = Lazy.force aluf4 in
         let bits = a lor (b lsl 4) lor (op lsl 8) in
         let decode = eval_bits nl bits in
         let result = decode (sum_names 4 "r") in
         let expected =
           match op with
           | 0 -> a land b
           | 1 -> a lor b
           | 2 -> a lxor b
           | 3 -> (a + b) land 15
           | 4 -> (a - b) land 15
           | 5 -> (a + 1) land 15
           | 6 -> a
           | _ -> lnot a land 15
         in
         result = expected
         && bit_of nl bits "zflag" = (expected = 0)
         && bit_of nl bits "nflag" = (expected land 8 <> 0));
    qcheck_case "adder_comparator combines both"
      QCheck2.Gen.(triple (int_gen 4) (int_gen 4) (int_gen 1))
      (fun (a, b, cin) ->
         let nl = Lazy.force addcmp4 in
         let bits = a lor (b lsl 4) lor (cin lsl 8) in
         let decode = eval_bits nl bits in
         decode (sum_names 4 "add_s" @ [ "add_c4" ]) = a + b + cin
         && bit_of nl bits "eq" = (a = b)
         && bit_of nl bits "lt" = (a < b));
  ]

let shifter_mult_tests =
  [
    qcheck_case "barrel shifter shifts left"
      QCheck2.Gen.(pair (int_gen 8) (int_bound 7))
      (fun (d, sh) ->
         let nl = Circuits.Arith.barrel_shifter ~bits:8 () in
         let bits = d lor (sh lsl 8) in
         let decode = eval_bits nl bits in
         decode (sum_names 8 "q") = (d lsl sh) land 255);
    qcheck_case "multiplier multiplies"
      QCheck2.Gen.(pair (int_gen 4) (int_gen 4))
      (fun (a, b) ->
         let nl = Circuits.Arith.multiplier ~bits:4 () in
         let bits = a lor (b lsl 4) in
         let decode = eval_bits nl bits in
         decode (sum_names 8 "p") = a * b);
    qcheck_case "max unit selects the larger word"
      QCheck2.Gen.(pair (int_gen 5) (int_gen 5))
      (fun (a, b) ->
         let nl = Circuits.Arith.max_unit ~bits:5 () in
         let bits = a lor (b lsl 5) in
         let decode = eval_bits nl bits in
         decode (sum_names 5 "m") = max a b
         && bit_of nl bits "a_wins" = (a >= b));
    Alcotest.test_case "multiplier BDD blows up vs adder" `Quick (fun () ->
        (* The paper's reason for excluding arithmetic from Fig 13. *)
        let mul = Bdd.Sbdd.of_netlist (Circuits.Arith.multiplier ~bits:6 ()) in
        let add = Bdd.Sbdd.of_netlist (Circuits.Arith.ripple_adder ~bits:6 ()) in
        check tb "mul >> add" true
          (Bdd.Sbdd.size mul > 4 * Bdd.Sbdd.size add));
  ]

(* ------------------------------------------------------------------ *)

let ecc_tests =
  [
    qcheck_case "parity tree" (int_gen 7) (fun bits ->
        let nl = Circuits.Ecc.parity_tree ~width:7 () in
        let rec pop b = if b = 0 then 0 else (b land 1) + pop (b lsr 1) in
        bit_of nl bits "parity" = (pop bits mod 2 = 1));
    Alcotest.test_case "check-bit count" `Quick (fun () ->
        check ti "8 data" 4 (Circuits.Ecc.num_check_bits ~data_bits:8);
        check ti "32 data" 6 (Circuits.Ecc.num_check_bits ~data_bits:32);
        check ti "57 data" 6 (Circuits.Ecc.num_check_bits ~data_bits:57));
    qcheck_case "hamming: clean word passes through" ~count:100 (int_gen 8)
      (fun data ->
         let enc = Circuits.Ecc.hamming_encoder ~data_bits:8 () in
         let checks = eval_bits enc data (sum_names 4 "p") in
         let cor = Circuits.Ecc.hamming_corrector ~data_bits:8 () in
         let bits = data lor (checks lsl 8) in
         eval_bits cor bits (sum_names 8 "q") = data);
    qcheck_case "hamming: any single data-bit error corrected" ~count:150
      QCheck2.Gen.(pair (int_gen 8) (int_bound 7))
      (fun (data, flip) ->
         let enc = Circuits.Ecc.hamming_encoder ~data_bits:8 () in
         let checks = eval_bits enc data (sum_names 4 "p") in
         let corrupted = data lxor (1 lsl flip) in
         let cor = Circuits.Ecc.hamming_corrector ~data_bits:8 () in
         let bits = corrupted lor (checks lsl 8) in
         eval_bits cor bits (sum_names 8 "q") = data);
    qcheck_case "sec_ded: single error corrected and flagged" ~count:100
      QCheck2.Gen.(pair (int_gen 8) (int_bound 7))
      (fun (data, flip) ->
         (* data_bits = 8 -> 4 checks + overall parity. *)
         let enc = Circuits.Ecc.hamming_encoder ~data_bits:8 () in
         let checks = eval_bits enc data (sum_names 4 "p") in
         let rec pop b = if b = 0 then 0 else (b land 1) + pop (b lsr 1) in
         let overall = (pop data + pop checks) mod 2 in
         let corrupted = data lxor (1 lsl flip) in
         let nl = Circuits.Ecc.sec_ded ~data_bits:8 () in
         let bits = corrupted lor (checks lsl 8) lor (overall lsl 12) in
         eval_bits nl bits (sum_names 8 "q") = data
         && bit_of nl bits "single_error"
         && not (bit_of nl bits "double_error"));
    qcheck_case "sec_ded: double error flagged, not corrected silently"
      ~count:100
      QCheck2.Gen.(triple (int_gen 8) (int_bound 7) (int_bound 7))
      (fun (data, f1, f2) ->
         QCheck2.assume (f1 <> f2);
         let enc = Circuits.Ecc.hamming_encoder ~data_bits:8 () in
         let checks = eval_bits enc data (sum_names 4 "p") in
         let rec pop b = if b = 0 then 0 else (b land 1) + pop (b lsr 1) in
         let overall = (pop data + pop checks) mod 2 in
         let corrupted = data lxor (1 lsl f1) lxor (1 lsl f2) in
         let nl = Circuits.Ecc.sec_ded ~data_bits:8 () in
         let bits = corrupted lor (checks lsl 8) lor (overall lsl 12) in
         bit_of nl bits "double_error" && not (bit_of nl bits "single_error"));
    qcheck_case "corrector with enables gates correction" ~count:60
      QCheck2.Gen.(pair (int_gen 4) (int_bound 3))
      (fun (data, flip) ->
         let enc = Circuits.Ecc.hamming_encoder ~data_bits:4 () in
         let checks = eval_bits enc data (sum_names 3 "p") in
         let cor = Circuits.Ecc.hamming_corrector ~extra_inputs:1 ~data_bits:4 () in
         let corrupted = data lxor (1 lsl flip) in
         (* enable = 0: the error passes through uncorrected. *)
         let bits_dis = corrupted lor (checks lsl 4) in
         let bits_en = bits_dis lor (1 lsl 7) in
         eval_bits cor bits_dis (sum_names 4 "q") = corrupted
         && eval_bits cor bits_en (sum_names 4 "q") = data);
  ]

(* ------------------------------------------------------------------ *)

let control_tests =
  [
    Alcotest.test_case "decoder is one-hot" `Quick (fun () ->
        let nl = Circuits.Control.decoder ~select_bits:4 () in
        for sel = 0 to 15 do
          let decode = eval_bits nl sel in
          for k = 0 to 15 do
            check tb
              (Printf.sprintf "sel=%d y%d" sel k)
              (k = sel)
              (decode [ Printf.sprintf "y%d" k ] = 1)
          done
        done);
    qcheck_case "priority encoder reports the lowest request" (int_gen 8)
      (fun bits ->
         let nl = Circuits.Control.priority_encoder ~width:8 () in
         let decode = eval_bits nl bits in
         let valid = decode [ "valid" ] = 1 in
         if bits = 0 then not valid
         else begin
           let rec lowest i = if bits land (1 lsl i) <> 0 then i else lowest (i + 1) in
           valid && decode (sum_names 3 "idx") = lowest 0
         end);
    qcheck_case "round-robin arbiter grants correctly"
      QCheck2.Gen.(pair (int_gen 6) (int_gen 6))
      (fun (req, mask) ->
         let nl = Circuits.Control.round_robin_arbiter ~width:6 () in
         let bits = req lor (mask lsl 6) in
         let decode = eval_bits nl bits in
         let grants = decode (List.init 6 (fun i -> Printf.sprintf "g%d" i)) in
         let expected =
           if req = 0 then 0
           else begin
             let masked = req land mask in
             let pool = if masked <> 0 then masked else req in
             let rec lowest i =
               if pool land (1 lsl i) <> 0 then 1 lsl i else lowest (i + 1)
             in
             lowest 0
           end
         in
         grants = expected && (decode [ "any_grant" ] = 1) = (req <> 0));
    qcheck_case "interrupt controller prioritises enabled channels"
      QCheck2.Gen.(pair (int_gen 9) (int_gen 3))
      (fun (irqs, enables) ->
         let nl = Circuits.Control.interrupt_controller ~channels:9 () in
         let bits = irqs lor (enables lsl 9) in
         let decode = eval_bits nl bits in
         let enabled =
           List.filter
             (fun i ->
                irqs land (1 lsl i) <> 0 && enables land (1 lsl (i / 3)) <> 0)
             (List.init 9 (fun i -> i))
         in
         let pending = decode [ "pending" ] = 1 in
         (pending = (enabled <> []))
         &&
         match enabled with
         | [] -> true
         | first :: _ -> decode (sum_names 4 "vec") = first);
    Alcotest.test_case "router XY decisions" `Quick (fun () ->
        let nl = Circuits.Control.router ~addr_bits:4 ~payload_bits:2 () in
        let run ~dx ~dy ~lx ~ly ~credits =
          let bits =
            dx lor (dy lsl 4) lor (lx lsl 8) lor (ly lsl 12)
            lor (credits lsl 18)
          in
          eval_bits nl bits
        in
        (* dest east of local, credit available *)
        let d = run ~dx:9 ~dy:3 ~lx:4 ~ly:3 ~credits:15 in
        check ti "east" 1 (d [ "east" ]);
        check ti "west" 0 (d [ "west" ]);
        (* equal x, dest north *)
        let d = run ~dx:4 ~dy:9 ~lx:4 ~ly:3 ~credits:15 in
        check ti "north" 1 (d [ "north" ]);
        (* at destination *)
        let d = run ~dx:4 ~dy:3 ~lx:4 ~ly:3 ~credits:0 in
        check ti "eject" 1 (d [ "eject" ]);
        (* east wanted but no credit *)
        let d = run ~dx:9 ~dy:3 ~lx:4 ~ly:3 ~credits:0 in
        check ti "stalled" 0 (d [ "east" ]));
    qcheck_case "int2float encodes magnitude and sign" ~count:300
      (int_gen 11)
      (fun bits ->
         let nl = Circuits.Control.int2float ~int_bits:11 () in
         let decode = eval_bits nl bits in
         let sign = bits land (1 lsl 10) <> 0 in
         (* magnitude in the circuit's 10-bit field; x = -1024 wraps to 0 *)
         let magnitude =
           let low = bits land 1023 in
           if sign then (1024 - low) land 1023 else low
         in
         let got_sign = decode [ "fsign" ] = 1 in
         let got_exp = decode (sum_names 3 "e") in
         got_sign = sign
         &&
         if magnitude = 0 then got_exp = 0
         else begin
           (* exponent = min(position of leading one, 7) *)
           let rec lead i = if magnitude lsr i > 0 then lead (i + 1) else i - 1 in
           got_exp = min (lead 0) 7
         end);
    Alcotest.test_case "cavlc decoder fields" `Quick (fun () ->
        let nl = Circuits.Control.cavlc_decoder () in
        (* Codeword 0b0001xxxxxx: 3 leading zeros (L=3), suffix bits are the
           next two below the leading one. *)
        let bits = 0b0001110000 in
        let decode = eval_bits nl bits in
        (* L = 3, s0 = 1: total_coeff = 2*3 + 1 = 7; len = 3 + 3 = 6. *)
        check ti "total_coeff" 7 (decode (sum_names 5 "tc"));
        check ti "code_len" 6 (decode (sum_names 4 "len")));
    Alcotest.test_case "opcode decoder one-hot classes" `Quick (fun () ->
        let nl = Circuits.Control.opcode_decoder () in
        for op = 0 to 127 do
          let decode = eval_bits nl op in
          let klass =
            List.filter
              (fun o -> decode [ o ] = 1)
              [ "is_load"; "is_store"; "is_branch"; "is_jump"; "is_alu_reg";
                "is_alu_imm"; "is_lui"; "is_system"; "illegal" ]
          in
          check ti (Printf.sprintf "op=%d" op) 1 (List.length klass)
        done);
    Alcotest.test_case "bus controller basic behaviours" `Quick (fun () ->
        let nl = Circuits.Control.bus_controller () in
        check ti "inputs" 147 (Logic.Netlist.num_inputs nl);
        check ti "outputs" 142 (Logic.Netlist.num_outputs nl);
        (* All-zero input: idle state, not busy, no tick. *)
        let out = Logic.Netlist.eval nl (fun _ -> false) in
        check tb "idle" true (List.assoc "st_idle" out);
        check tb "not busy" false (List.assoc "busy" out);
        (* Enabled + prescale counter equal to divisor (both zero) ticks. *)
        let out = Logic.Netlist.eval nl (fun v -> v = "enable") in
        check tb "tick" true (List.assoc "tick" out);
        check tb "addr match (0 = 0)" true (List.assoc "addr_match" out));
  ]

(* ------------------------------------------------------------------ *)

let suite_tests =
  [
    Alcotest.test_case "all entries generate well-formed netlists" `Quick
      (fun () ->
         List.iter
           (fun (entry : Circuits.Suite.entry) ->
              let nl = entry.generate () in
              (* c1908's Hamming geometry admits 32 or 34 inputs, never the
                 paper's 33 (DESIGN.md); everything else matches exactly. *)
              let tolerance = if entry.name = "c1908" then 1 else 0 in
              check tb
                (entry.name ^ " inputs")
                true
                (abs (entry.paper_inputs - Logic.Netlist.num_inputs nl)
                 <= tolerance);
              (* Outputs match the paper interface for the non-composite
                 analogues. *)
              ignore (Logic.Netlist.eval nl (fun _ -> false)))
           Circuits.Suite.all);
    Alcotest.test_case "names unique and findable" `Quick (fun () ->
        List.iter
          (fun name ->
             check Alcotest.string "found" name (Circuits.Suite.find name).name)
          Circuits.Suite.names;
        check ti "17 benchmarks" 17 (List.length Circuits.Suite.all));
    Alcotest.test_case "find unknown raises" `Quick (fun () ->
        check tb "raises" true
          (match Circuits.Suite.find "nope" with
           | exception Not_found -> true
           | _ -> false));
    Alcotest.test_case "combine concatenates interfaces" `Quick (fun () ->
        let c =
          Circuits.Suite.combine ~name:"both"
            [
              Circuits.Arith.ripple_adder ~bits:2 ();
              Circuits.Ecc.parity_tree ~width:3 ();
            ]
        in
        check ti "inputs" 7 (Logic.Netlist.num_inputs c);
        check ti "outputs" 4 (Logic.Netlist.num_outputs c);
        (* Blocks stay independent: parity of block 1 only sees u1 wires. *)
        let out = Logic.Netlist.eval c (fun v -> v = "u1_x0") in
        check tb "parity" true (List.assoc "u1_parity" out));
    Alcotest.test_case "epfl subset flagged as small" `Quick (fun () ->
        check tb "ctrl small" true
          (List.exists
             (fun (e : Circuits.Suite.entry) -> e.name = "ctrl")
             Circuits.Suite.small));
  ]

let () =
  Alcotest.run "circuits"
    [
      "arith", arith_tests;
      "shift_mult_max", shifter_mult_tests;
      "ecc", ecc_tests;
      "control", control_tests;
      "suite", suite_tests;
    ]
