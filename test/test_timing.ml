(* Timing-model tests: issue width, operation latencies, WAW ordering,
   functional-unit conflicts, superpipelined accounting, and the cache. *)

open Ilp_ir
open Ilp_machine
module Timing = Ilp_sim.Timing

let r = Reg.phys

let cycles_of config instrs =
  let t = Timing.create config in
  List.iter (fun i -> Timing.issue t i (-1)) instrs;
  Timing.minor_cycles t

let issue_cycles config instrs =
  (* minor cycle at which each instruction issues *)
  let t = Timing.create config in
  List.map
    (fun i ->
      Timing.issue t i (-1);
      t.Timing.now)
    instrs

let independent n = Ilp_sim.Diagram.independent_instrs n
let chain n = Ilp_sim.Diagram.dependent_instrs n

let test_base_throughput () =
  (* base machine: one instruction per cycle, chains cost the same *)
  Alcotest.(check int) "6 independent" 6 (cycles_of Presets.base (independent 6));
  Alcotest.(check int) "6 chained" 6 (cycles_of Presets.base (chain 6))

let test_superscalar_width () =
  let c = Presets.superscalar 3 in
  Alcotest.(check (list int)) "3 per cycle"
    [ 0; 0; 0; 1; 1; 1 ]
    (issue_cycles c (independent 6));
  (* a chain cannot use the width *)
  Alcotest.(check (list int)) "chain serializes"
    [ 0; 1; 2; 3 ]
    (issue_cycles c (chain 4))

let test_superpipelined_latency () =
  let c = Presets.superpipelined 3 in
  (* issue one per minor cycle, but results take 3 minor cycles *)
  Alcotest.(check (list int)) "independent flow"
    [ 0; 1; 2; 3 ]
    (issue_cycles c (independent 4));
  Alcotest.(check (list int)) "chain stalls for latency"
    [ 0; 3; 6; 9 ]
    (issue_cycles c (chain 4));
  (* reported in base cycles: last issue at minor 5, drain to minor 8 *)
  let t = Timing.create c in
  List.iter (fun i -> Timing.issue t i (-1)) (independent 6);
  Helpers.check_float "base cycles = minor / m" (8.0 /. 3.0)
    (Timing.base_cycles t)

let test_waw_orders_completions () =
  (* two writes to the same register: the second must not complete
     before the first (long-latency first write) *)
  let c =
    Config.make "waw"
      ~latencies:(Config.latency_table [ (Iclass.Fp_mul, 5) ])
  in
  let i1 = Instr.make Opcode.Fmul ~dst:(r 9) ~srcs:[ Instr.Oreg (r 1); Instr.Oreg (r 2) ] in
  let i2 = Instr.make Opcode.Mov ~dst:(r 9) ~srcs:[ Instr.Oreg (r 3) ] in
  Alcotest.(check (list int)) "mov stalls for WAW"
    [ 0; 4 ]
    (issue_cycles c [ i1; i2 ])

let test_unit_conflicts () =
  (* underpipelined: the single memory unit accepts one op per 2 cycles *)
  let c = Presets.underpipelined in
  let loads =
    List.init 3 (fun k ->
        Instr.make Opcode.Ld ~dst:(r (10 + k)) ~srcs:[ Instr.Oreg Reg.sp ] ~offset:k)
  in
  Alcotest.(check (list int)) "loads every other cycle"
    [ 0; 2; 4 ]
    (issue_cycles c loads)

let test_multiplicity () =
  let c =
    Config.make "two-units" ~issue_width:4
      ~units:
        [ { Config.unit_name = "mem";
            classes = [ Iclass.Load ];
            issue_latency = 2;
            multiplicity = 2;
          } ]
  in
  let loads =
    List.init 4 (fun k ->
        Instr.make Opcode.Ld ~dst:(r (10 + k)) ~srcs:[ Instr.Oreg Reg.sp ] ~offset:k)
  in
  (* two units: two loads issue at cycle 0, two more at cycle 2 *)
  Alcotest.(check (list int)) "pairs of loads"
    [ 0; 0; 2; 2 ]
    (issue_cycles c loads)

let test_in_order_stall_blocks_younger () =
  (* an independent instruction behind a stalled one also waits
     (in-order issue) *)
  let c = Presets.superscalar 2 in
  let producer = Instr.make Opcode.Ld ~dst:(r 10) ~srcs:[ Instr.Oreg Reg.sp ] in
  let consumer = Instr.make Opcode.Add ~dst:(r 11) ~srcs:[ Instr.Oreg (r 10); Instr.Oimm 1 ] in
  let independent_one = Instr.make Opcode.Add ~dst:(r 12) ~srcs:[ Instr.Oreg (r 4); Instr.Oimm 1 ] in
  Alcotest.(check (list int)) "younger waits behind stalled"
    [ 0; 1; 1 ]
    (issue_cycles c [ producer; consumer; independent_one ])

let test_branches_free () =
  (* control is free under perfect prediction: branches only occupy
     issue slots *)
  let c = Presets.base in
  let b = Builder.beq (r 1) (r 2) (Label.of_string "x") in
  Alcotest.(check (list int)) "branch issues like any op"
    [ 0; 1; 2 ]
    (issue_cycles c [ b; Instr.copy b; Instr.copy b ])

let test_speedup_metric () =
  let t = Timing.create (Presets.superscalar 4) in
  List.iter (fun i -> Timing.issue t i (-1)) (independent 8);
  Helpers.check_float "8 instrs in 2 cycles" 4.0 (Timing.speedup t)

let test_cache_behavior () =
  let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:4 ~penalty:10 () in
  Alcotest.(check bool) "first access misses" false (Ilp_sim.Cache.access cache 0);
  Alcotest.(check bool) "same line hits" true (Ilp_sim.Cache.access cache 3);
  Alcotest.(check bool) "next line misses" false (Ilp_sim.Cache.access cache 4);
  (* 4 lines x 4 words: address 64 maps to the same index as 0 *)
  Alcotest.(check bool) "conflict evicts" false (Ilp_sim.Cache.access cache 64);
  Alcotest.(check bool) "original now misses" false (Ilp_sim.Cache.access cache 0);
  Alcotest.(check int) "accesses counted" 5 (Ilp_sim.Cache.accesses cache);
  Alcotest.(check int) "misses counted" 4 (Ilp_sim.Cache.misses cache);
  Helpers.check_float "miss rate" 0.8 (Ilp_sim.Cache.miss_rate cache)

let test_cache_invalid () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (match Ilp_sim.Cache.create ~lines:3 ~penalty:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cache_stalls_pipeline () =
  let config = Presets.base in
  let with_cache penalty =
    let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:1 ~penalty () in
    let t = Timing.create ~cache config in
    let loads =
      List.init 8 (fun k ->
          Instr.make Opcode.Ld ~dst:(r (10 + k)) ~srcs:[ Instr.Oreg Reg.sp ]
            ~offset:k)
    in
    (* distinct addresses: every access misses *)
    List.iteri (fun k i -> Timing.issue t i (k * 17)) loads;
    Timing.minor_cycles t
  in
  Alcotest.(check bool) "bigger penalty costs more" true
    (with_cache 20 > with_cache 2)

let test_scoreboard_size () =
  (* the scoreboard follows the executor's register-file size *)
  let hi = Instr.make Opcode.Li ~dst:(r 400) ~srcs:[ Instr.Oimm 1 ] in
  let t = Timing.create ~registers:512 Presets.base in
  Timing.issue t hi (-1);
  Alcotest.(check int) "register 400 fits with ~registers:512" 1
    (Timing.instrs t);
  Alcotest.(check bool) "default size matches Exec.default_options" true
    (Ilp_sim.Exec.default_options.Ilp_sim.Exec.registers = 256
    &&
    match Timing.issue (Timing.create Presets.base) hi (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let histogram_total t = Array.fold_left ( + ) 0 t.Timing.issue_histogram

let test_histogram_accounts_cache_stalls () =
  (* stores that miss raise cache_stall_until; the skipped cycles must
     still appear in the issue histogram as zero-issue cycles *)
  let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:1 ~penalty:10 () in
  let t = Timing.create ~cache Presets.base in
  let stores =
    List.init 6 (fun k ->
        Instr.make Opcode.St
          ~srcs:[ Instr.Oreg (r 4); Instr.Oreg Reg.sp ]
          ~offset:k)
  in
  List.iteri (fun k i -> Timing.issue t i (k * 33)) stores;
  Timing.finish t;
  Alcotest.(check bool) "write misses stalled the pipe" true
    (t.Timing.stall_cycles > 0);
  Alcotest.(check int) "histogram covers every minor cycle"
    (Timing.minor_cycles t) (histogram_total t)

let test_histogram_accounts_drain () =
  (* without a cache: finish pads the histogram through the drain *)
  let c = Presets.superpipelined 3 in
  let t = Timing.create c in
  List.iter (fun i -> Timing.issue t i (-1)) (chain 4);
  Timing.finish t;
  Alcotest.(check int) "histogram covers every minor cycle"
    (Timing.minor_cycles t) (histogram_total t)

(* Snapshot/resume round-trip: split an instruction stream at an
   arbitrary point, resume in a fresh model, and the final cycle count,
   stalls and histogram must match the unsplit run — including a cache
   whose tag state straddles the cut (the repeated address must hit
   after the cut only if the fill before the cut was carried over). *)
let test_snapshot_resume_roundtrip () =
  let config = Presets.superscalar 2 in
  let stream =
    List.concat_map
      (fun k ->
        [ (Instr.make Opcode.Ld ~dst:(r (20 + (k mod 8)))
             ~srcs:[ Instr.Oreg Reg.sp ] ~offset:k,
           17 * (k mod 5));
          (Instr.make Opcode.Add ~dst:(r 40)
             ~srcs:[ Instr.Oreg (r (20 + (k mod 8))); Instr.Oreg (r 40) ],
           -1)
        ])
      (List.init 12 Fun.id)
  in
  let run_with cuts =
    let cache = Ilp_sim.Cache.create ~lines:4 ~line_words:1 ~penalty:9 () in
    let t = ref (Timing.create ~cache config) in
    List.iteri
      (fun k (i, addr) ->
        if List.mem k cuts then t := Timing.resume (Timing.snapshot !t);
        Timing.issue !t i addr)
      stream;
    Timing.finish !t;
    ( Timing.minor_cycles !t,
      Timing.instrs !t,
      !t.Timing.stall_cycles,
      Array.to_list !t.Timing.issue_histogram )
  in
  let reference = run_with [] in
  List.iter
    (fun cuts ->
      if run_with cuts <> reference then
        Alcotest.failf "cut at %s: split run differs from unsplit run"
          (String.concat "," (List.map string_of_int cuts)))
    [ [ 1 ]; [ 7 ]; [ 23 ]; [ 3; 9; 15 ]; List.init 24 Fun.id ]

let test_snapshot_is_independent () =
  (* the snapshot is a copy: mutating the live model afterwards must not
     disturb it, and resuming twice gives identical continuations *)
  let t = Timing.create Presets.base in
  List.iter (fun i -> Timing.issue t i (-1)) (chain 3);
  let snap = Timing.snapshot t in
  List.iter (fun i -> Timing.issue t i (-1)) (chain 5);
  let finishes snapshot =
    let t = Timing.resume snapshot in
    Timing.finish t;
    (Timing.minor_cycles t, Timing.instrs t)
  in
  let a = finishes snap and b = finishes snap in
  Alcotest.(check (pair int int)) "two resumes agree" a b;
  Alcotest.(check int) "snapshot kept the pre-mutation count" 3 (snd a)

let test_cache_restore_rejects_geometry () =
  let mk ~lines ~penalty =
    Ilp_sim.Cache.create ~lines ~line_words:1 ~penalty ()
  in
  let state = Ilp_sim.Cache.snapshot (mk ~lines:8 ~penalty:5) in
  Alcotest.(check bool) "geometry mismatch raises" true
    (match Ilp_sim.Cache.restore (mk ~lines:16 ~penalty:5) state with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "penalty mismatch raises" true
    (match Ilp_sim.Cache.restore (mk ~lines:8 ~penalty:7) state with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "matching geometry restores" true
    (match Ilp_sim.Cache.restore (mk ~lines:8 ~penalty:5) state with
    | () -> true
    | exception Invalid_argument _ -> false)

(* ---- differential property: the closed-form kernel against a
   cycle-by-cycle reference ------------------------------------------ *)

(* Reference semantics of [Timing.issue_decoded]: advance one minor
   cycle at a time until every issue constraint holds.  Kept small and
   literal on purpose; the kernel computes the same issue cycle in
   closed form. *)
type reference = {
  r_config : Config.t;
  r_reg_ready : int array;
  r_units : (Config.unit_spec * int array) list;  (* declaration order *)
  r_cache : Ilp_sim.Cache.t option;
  mutable r_now : int;
  mutable r_issued : int;
  mutable r_stalls : int;
  mutable r_stall_until : int;
  r_hist : int array;
  mutable r_force : bool;
}

let ref_next s =
  let k = min s.r_issued (Array.length s.r_hist - 1) in
  s.r_hist.(k) <- s.r_hist.(k) + 1;
  s.r_now <- s.r_now + 1;
  s.r_issued <- 0;
  s.r_force <- false

let ref_issue s (d : Timing.decoded) addr =
  let module Cache = Ilp_sim.Cache in
  let lat = ref (Config.latency s.r_config d.d_cls) in
  (match s.r_cache with
  | Some c when addr >= 0 && not (Cache.access c addr) ->
      if d.d_is_load then lat := !lat + Cache.miss_penalty c
      else
        s.r_stall_until <-
          max s.r_stall_until (s.r_now + Cache.miss_penalty c)
  | _ -> ());
  let serving =
    List.filter (fun (u, _) -> List.mem d.d_cls u.Config.classes) s.r_units
  in
  let rec try_issue () =
    while s.r_now < s.r_stall_until do
      s.r_stalls <- s.r_stalls + 1;
      ref_next s
    done;
    let free =
      List.find_map
        (fun (u, free_at) ->
          Array.find_mapi
            (fun i f -> if f <= s.r_now then Some (u, free_at, i) else None)
            free_at)
        serving
    in
    if s.r_issued >= s.r_config.Config.issue_width || s.r_force then begin
      ref_next s;
      try_issue ()
    end
    else if
      Array.exists (fun u -> s.r_reg_ready.(u) > s.r_now) d.d_uses
      || Array.exists (fun r -> s.r_reg_ready.(r) > s.r_now + !lat) d.d_defs
      || (serving <> [] && free = None)
    then begin
      s.r_stalls <- s.r_stalls + 1;
      ref_next s;
      try_issue ()
    end
    else begin
      Option.iter
        (fun (u, free_at, i) ->
          free_at.(i) <- s.r_now + u.Config.issue_latency)
        free;
      Array.iter (fun r -> s.r_reg_ready.(r) <- s.r_now + !lat) d.d_defs;
      s.r_issued <- s.r_issued + 1;
      if s.r_config.Config.branch_ends_packet && Iclass.is_control d.d_cls
      then s.r_force <- true
    end
  in
  try_issue ()

let ref_finish s =
  let total = max (s.r_now + 1) (Array.fold_left max 0 s.r_reg_ready) in
  ref_next s;
  while s.r_now < total do
    ref_next s
  done

type kernel_case = {
  k_config : Config.t;
  k_cache : (int * int * int) option;  (* lines, line words, penalty *)
  k_stream : (Timing.decoded * int) list;  (* with the address or -1 *)
}

let registers = 8 (* few registers, so hazards are frequent *)

let gen_kernel_case =
  let open QCheck2.Gen in
  let gen_class = map Iclass.of_index (int_range 0 (Iclass.count - 1)) in
  let gen_unit k =
    let* classes = list_size (int_range 1 4) gen_class in
    let* multiplicity = int_range 1 3 in
    let* issue_latency = int_range 0 3 in
    return
      { Config.unit_name = Printf.sprintf "u%d" k; classes; issue_latency;
        multiplicity }
  in
  let gen_instr =
    let* d_cls = gen_class in
    let* d_defs = array_size (int_range 0 2) (int_range 0 (registers - 1)) in
    let* d_uses = array_size (int_range 0 3) (int_range 0 (registers - 1)) in
    let d_is_load = d_cls = Iclass.Load in
    let+ addr =
      if d_is_load || d_cls = Iclass.Store then int_range 0 63 else pure (-1)
    in
    ({ Timing.d_cls; d_is_load; d_defs; d_uses }, addr)
  in
  let* issue_width = int_range 1 8 in
  let* pipe_degree = int_range 1 8 in
  let* base = array_size (pure Iclass.count) (int_range 1 5) in
  let* n_units = int_range 0 3 in
  let* units = flatten_l (List.init n_units gen_unit) in
  let* branch_ends_packet = bool in
  let* k_cache =
    option (triple (oneofl [ 2; 8 ]) (oneofl [ 1; 2 ]) (int_range 1 12))
  in
  let+ k_stream = list_size (int_range 1 80) gen_instr in
  { k_config =
      Config.make "random" ~issue_width ~pipe_degree ~units
        ~latencies:(Config.scale_latencies base pipe_degree)
        ~branch_ends_packet;
    k_cache;
    k_stream;
  }

let print_kernel_case c =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "%s%s\n%s"
    (Fmt.str "%a" Config.pp c.k_config)
    (match c.k_cache with
    | None -> "no cache"
    | Some (l, w, p) ->
        Printf.sprintf "cache lines=%d line_words=%d penalty=%d" l w p)
    (String.concat "\n"
       (List.map
          (fun ((d : Timing.decoded), addr) ->
            Printf.sprintf "  %s defs=[%s] uses=[%s] addr=%d"
              (Iclass.name d.d_cls) (ints d.d_defs) (ints d.d_uses) addr)
          c.k_stream))

(* Run the kernel and the reference side by side on the same stream and
   compare the whole hazard state and the accumulators after every
   instruction and after the drain.  A failure prints the case; the
   "qcheck random seed" line at the top of the run reproduces it with
   QCHECK_SEED. *)
let prop_kernel_matches_reference =
  QCheck2.Test.make ~count:500
    ~name:"timing kernel = cycle-by-cycle reference" ~print:print_kernel_case
    gen_kernel_case (fun c ->
      let cache () =
        Option.map
          (fun (lines, line_words, penalty) ->
            Ilp_sim.Cache.create ~lines ~line_words ~penalty ())
          c.k_cache
      in
      let t = Timing.create ?cache:(cache ()) ~registers c.k_config in
      let s =
        { r_config = c.k_config;
          r_reg_ready = Array.make registers 0;
          r_units =
            List.map
              (fun u -> (u, Array.make u.Config.multiplicity 0))
              c.k_config.Config.units;
          r_cache = cache ();
          r_now = 0;
          r_issued = 0;
          r_stalls = 0;
          r_stall_until = 0;
          r_hist = Array.make (c.k_config.Config.issue_width + 1) 0;
          r_force = false;
        }
      in
      let agree step =
        let free_at =
          Array.to_list (Array.map (fun p -> p.Timing.free_at) t.Timing.pools)
        in
        if
          t.Timing.now <> s.r_now
          || t.Timing.stall_cycles <> s.r_stalls
          || t.Timing.issue_histogram <> s.r_hist
          || t.Timing.reg_ready <> s.r_reg_ready
          || free_at <> List.map snd s.r_units
        then
          QCheck2.Test.fail_reportf
            "%s: kernel now=%d stalls=%d, reference now=%d stalls=%d" step
            t.Timing.now t.Timing.stall_cycles s.r_now s.r_stalls
      in
      List.iteri
        (fun k ((d : Timing.decoded), addr) ->
          Timing.issue_decoded t ~cls:d.d_cls ~is_load:d.d_is_load
            ~defs:d.d_defs ~uses:d.d_uses addr;
          ref_issue s d addr;
          agree (Printf.sprintf "after instruction %d" k))
        c.k_stream;
      Timing.finish t;
      ref_finish s;
      agree "after finish";
      true)

let tests =
  [ Alcotest.test_case "base throughput" `Quick test_base_throughput;
    Alcotest.test_case "snapshot/resume round-trip" `Quick
      test_snapshot_resume_roundtrip;
    Alcotest.test_case "snapshot independence" `Quick
      test_snapshot_is_independent;
    Alcotest.test_case "cache restore geometry" `Quick
      test_cache_restore_rejects_geometry;
    Alcotest.test_case "scoreboard size" `Quick test_scoreboard_size;
    Alcotest.test_case "histogram vs cache stalls" `Quick
      test_histogram_accounts_cache_stalls;
    Alcotest.test_case "histogram vs drain" `Quick
      test_histogram_accounts_drain;
    Alcotest.test_case "superscalar width" `Quick test_superscalar_width;
    Alcotest.test_case "superpipelined latency" `Quick test_superpipelined_latency;
    Alcotest.test_case "WAW ordering" `Quick test_waw_orders_completions;
    Alcotest.test_case "unit conflicts" `Quick test_unit_conflicts;
    Alcotest.test_case "unit multiplicity" `Quick test_multiplicity;
    Alcotest.test_case "in-order stall" `Quick test_in_order_stall_blocks_younger;
    Alcotest.test_case "branches are free" `Quick test_branches_free;
    Alcotest.test_case "speedup metric" `Quick test_speedup_metric;
    Alcotest.test_case "cache behaviour" `Quick test_cache_behavior;
    Alcotest.test_case "cache validation" `Quick test_cache_invalid;
    Alcotest.test_case "cache stalls pipeline" `Quick test_cache_stalls_pipeline;
    QCheck_alcotest.to_alcotest prop_kernel_matches_reference ]
