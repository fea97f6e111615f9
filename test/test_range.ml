(* Value-range abstract interpretation: the interval x congruence
   product, the MiniMod subscript sanitizer, range-sharpened memory
   disambiguation, and static per-loop ILP bounds.

   The headline property at the end is dynamic soundness: on random
   programs (all four generator modes), every executed array subscript
   lies in the array's static index range and every value stored to a
   global int scalar lies in its static invariant range — checked
   against the actual dynamic stream of the compiled program. *)

open Ilp_machine
open Ilp_ir
module R = Ilp_analysis.Range
module A = Ilp_lang.Absint

(* --- domain algebra ---------------------------------------------------- *)

let test_interval_algebra () =
  let open R.Interval in
  let a = of_bounds (Fin 0) (Fin 10) and b = of_bounds (Fin 5) (Fin 20) in
  Alcotest.(check bool) "join keeps both" true
    (mem 0 (join a b) && mem 20 (join a b));
  Alcotest.(check bool) "meet is the overlap" true
    (mem 7 (meet a b) && not (mem 3 (meet a b)));
  (* widening jumps an unstable bound to infinity; narrowing pulls it
     back once the sequence stabilises *)
  let w = widen a (of_bounds (Fin 0) (Fin 11)) in
  Alcotest.(check bool) "widen blows the growing bound" true (mem 1000000 w);
  let n = narrow w (of_bounds (Fin 0) (Fin 11)) in
  Alcotest.(check bool) "narrow recovers the bound" true (not (mem 12 n))

let test_congruence_algebra () =
  let open R.Congruence in
  let odd = make 1 2 in
  Alcotest.(check bool) "odd members" true (mem 3 odd && not (mem 4 odd));
  let j = join (of_const 2) (of_const 6) in
  Alcotest.(check bool) "join of 2 and 6 divides by 4" true
    (mem 10 j && not (mem 4 j))

let test_product_strides () =
  (* (x & 15) * 2 [+ 1]: the shapes redblack and the range-heavy fuzz
     corpus hammer *)
  let masked = R.V.band R.V.top (R.V.of_const 15) in
  let even = R.V.mul masked (R.V.of_const 2) in
  let odd = R.V.add even (R.V.of_const 1) in
  Alcotest.(check bool) "even stride in [0,30]" true
    (R.V.mem 30 even && not (R.V.mem 31 even) && not (R.V.mem 3 even));
  Alcotest.(check bool) "odd stride excludes evens" true
    (R.V.mem 31 odd && not (R.V.mem 30 odd));
  Alcotest.(check bool) "even and odd are separated" true
    (R.V.separated even odd);
  Alcotest.(check bool) "difference excludes zero" true
    (R.V.excludes_zero (R.V.sub odd even));
  (* a full-extent mask over a value already inside it is the identity:
     congruence survives *)
  Alcotest.(check bool) "identity mask keeps the product" true
    (R.V.equal odd (R.V.band odd (R.V.of_const 31)))

let test_separated_windows () =
  let upper = R.V.add (R.V.of_const 8) (R.V.band R.V.top (R.V.of_const 7)) in
  let lower = R.V.band R.V.top (R.V.of_const 7) in
  Alcotest.(check bool) "windows separated" true (R.V.separated upper lower);
  Alcotest.(check bool) "window difference nonzero" true
    (R.V.excludes_zero (R.V.sub upper lower))

let test_of_counted () =
  let v = R.V.of_counted ~start:0 ~step:2 ~trips:5 in
  Alcotest.(check bool) "hits the lattice points" true
    (R.V.mem 0 v && R.V.mem 8 v);
  Alcotest.(check bool) "skips odd and beyond" true
    (not (R.V.mem 3 v) && not (R.V.mem 10 v))

(* --- the subscript sanitizer ------------------------------------------- *)

let analyze_src ?unroll src =
  let tast = Ilp_lang.Semant.compile_source src in
  let tast =
    match unroll with
    | Some { Ilp_core.Ilp.mode; factor; bounds } ->
        Ilp_lang.Unroll.program ~bounds mode factor tast
    | None -> tast
  in
  A.analyze tast

let test_sanitize_proves_oob () =
  let t =
    analyze_src
      {|
arr a : int[8];
fun main() {
  var i : int;
  for (i = 0; i < 4; i = i + 1) { a[8 + (i & 3)] = i; }
  sink(a[0]);
}
|}
  in
  let _, oob, _ = A.counts t in
  Alcotest.(check bool) "the overrunning store is proved oob" true (oob >= 1);
  (* an overlapping range is only Unknown, never Proved_oob *)
  let t2 =
    analyze_src
      {|
arr a : int[8];
fun main() {
  var i : int;
  for (i = 0; i < 12; i = i + 1) { a[i] = i; }
  sink(a[0]);
}
|}
  in
  let _, oob2, unknown2 = A.counts t2 in
  Alcotest.(check int) "overlap is not proved oob" 0 oob2;
  Alcotest.(check bool) "overlap is flagged unknown" true (unknown2 >= 1)

let test_sanitize_proves_safe () =
  let t =
    analyze_src
      {|
arr a : int[32];
fun main() {
  var i : int;
  for (i = 0; i < 100; i = i + 1) { a[(i & 15) * 2 + 1] = a[(i & 15) * 2] + i; }
  sink(a[1]);
}
|}
  in
  let safe, oob, unknown = A.counts t in
  Alcotest.(check int) "no oob" 0 oob;
  Alcotest.(check int) "no unknown" 0 unknown;
  Alcotest.(check bool) "all sites proved safe" true (safe >= 3)

(* The configurations [ilp sanitize --all] analyzes: every benchmark
   rolled, plus its shipped unroll factor (naive, no peeling) where it
   has one — labelled the way the CLI's tally labels them. *)
let sanitize_configs () =
  List.concat_map
    (fun (w : Ilp_workloads.Workload.t) ->
      let name = w.Ilp_workloads.Workload.name
      and factor = w.Ilp_workloads.Workload.default_unroll in
      (name, None)
      ::
      (if factor > 1 then
         [ ( Printf.sprintf "%s x%d" name factor,
             Some
               { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Naive;
                 factor;
                 bounds = false;
               } ) ]
       else [])
      |> List.map (fun (label, unroll) ->
             (label, name, unroll, w.Ilp_workloads.Workload.source)))
    (Ilp_workloads.Registry.all @ Ilp_workloads.Registry.extras)

(* The CI gate: no benchmark — rolled or at its shipped unroll factor —
   has an access the analysis proves out of bounds; the masked-subscript
   workloads are fully proved safe. *)
let test_workloads_no_oob () =
  List.iter
    (fun (_, name, unroll, source) ->
      let t = analyze_src ?unroll source in
      let safe, oob, unknown = A.counts t in
      if oob <> 0 then
        Alcotest.failf "%s: %d access(es) proved out of bounds" name oob;
      if List.mem name [ "whet"; "smooth"; "redblack" ] && unknown <> 0 then
        Alcotest.failf "%s: expected fully proved safe, got %d/%d unknown"
          name unknown (safe + unknown))
    (sanitize_configs ())

(* The exact verdict tally of every [sanitize --all] configuration, as
   the CLI prints it.  Any change to how the analysis walks a program —
   iteration order, widening schedule, which loop counts as counted —
   shows up here first. *)
let test_sanitize_tallies () =
  let expected =
    [ ("ccom", (1, 0, 49));
      ("grr", (6, 0, 13));
      ("linpack", (22, 0, 6));
      ("linpack x4", (66, 0, 22));
      ("livermore", (72, 0, 4));
      ("met", (34, 0, 8));
      ("stanford", (42, 0, 20));
      ("whet", (13, 0, 0));
      ("yacc", (17, 0, 14));
      ("smooth", (4, 0, 0));
      ("smooth x4", (18, 0, 0));
      ("redblack", (8, 0, 0));
      ("redblack x4", (32, 0, 0)) ]
  in
  let actual =
    List.map
      (fun (label, _, unroll, source) ->
        (label, A.counts (analyze_src ?unroll source)))
      (sanitize_configs ())
  in
  Alcotest.(check (list (pair string (triple int int int))))
    "(safe, oob, unknown) per configuration" expected actual

(* Site paths and discovery order on a program with every statement
   form: a helper function, if/else, while, a counted for, a for over a
   symbolic bound (an array load the constant environment cannot fold),
   and a nested counted loop.  A path is the function name followed by
   each statement's index in its block, with [then]/[else]/[body]
   naming the nested block; within one statement, reads are discovered
   in evaluation order before the store they feed. *)
let test_site_paths () =
  let t =
    analyze_src
      {|
arr a : int[16];
arr b : int[8];
var g : int = 3;

fun get(k: int) : int {
  return a[k & 15];
}

fun main() {
  var i : int;
  var j : int;
  var n : int;
  n = b[0] & 7;
  if (n > 0) { a[0] = 1; } else { b[1] = 2; }
  i = 0;
  while (i < 4) { b[i] = a[i + 4]; i = i + 1; }
  for (i = 0; i < 8; i = i + 1) { a[i] = b[i]; }
  for (i = 0; i < n; i = i + 1) { a[i + 8] = get(i); }
  for (i = 0; i < 4; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) { a[i * 4 + j] = b[j + i]; }
  }
  sink(a[3] + g);
}
|}
  in
  let show (s : A.site) =
    Printf.sprintf "%s %s %s%s" s.A.s_func s.A.s_path s.A.s_array
      (if s.A.s_write then " write" else "")
  in
  Alcotest.(check (list string)) "sites in discovery order"
    [ "get get.0 a";
      "main main.3 b";
      "main main.4.then.0 a write";
      "main main.4.else.0 b write";
      "main main.6.body.0 a";
      "main main.6.body.0 b write";
      "main main.7.body.0 b";
      "main main.7.body.0 a write";
      "main main.8.body.0 a write";
      "main main.9.body.0.body.0 b";
      "main main.9.body.0.body.0 a write";
      "main main.10 a" ]
    (List.map show t.A.sites);
  let safe, oob, unknown = A.counts t in
  Alcotest.(check (triple int int int)) "every site proved safe" (12, 0, 0)
    (safe, oob, unknown)

(* Allocation gate: the analysis of all [sanitize --all] configurations
   stays within 120 M minor words (about 50 M today).  The fixpoint
   re-walks every loop body many times, so anything it recomputes per
   visit from the syntax alone (site paths, constant environments, loop
   classification, name lookups) or allocates per comparison (union key
   lists in the environment equality) multiplies into this figure;
   recomputing them made it 175 M. *)
let test_absint_allocation () =
  let tasts =
    List.map
      (fun (_, _, unroll, source) ->
        let tast = Ilp_lang.Semant.compile_source source in
        match unroll with
        | Some { Ilp_core.Ilp.mode; factor; bounds } ->
            Ilp_lang.Unroll.program ~bounds mode factor tast
        | None -> tast)
      (sanitize_configs ())
  in
  let before = Gc.minor_words () in
  List.iter (fun t -> ignore (A.analyze t)) tasts;
  let words = Gc.minor_words () -. before in
  if words > 120e6 then
    Alcotest.failf "Absint.analyze over %d configurations: %.1f M minor \
                    words (budget 120 M)"
      (List.length tasts) (words /. 1e6)

(* --- range-sharpened memory disambiguation ----------------------------- *)

let prescheduled source =
  Ilp_core.Ilp.compile_unscheduled ~level:Ilp_core.Ilp.O4 Presets.base source

let func program name =
  match Program.find_function program name with
  | Some f -> f
  | None -> Alcotest.failf "compiled program lost %s" name

let redblack_source () =
  let w = Ilp_workloads.Registry.find "redblack" |> Option.get in
  w.Ilp_workloads.Workload.source

let test_redblack_range_pruning () =
  let program = prescheduled (redblack_source ()) in
  List.iter
    (fun fname ->
      let f = func program fname in
      let without =
        Ilp_analysis.Memdep.func_stats
          (Ilp_analysis.Memdep.analyze ~ranges:false f)
          f
      in
      let with_r =
        Ilp_analysis.Memdep.func_stats (Ilp_analysis.Memdep.analyze f) f
      in
      if with_r.Ilp_analysis.Memdep.pruned <= without.Ilp_analysis.Memdep.pruned
      then
        Alcotest.failf
          "%s: ranges should prune strictly more edges (%d vs %d)" fname
          with_r.Ilp_analysis.Memdep.pruned without.Ilp_analysis.Memdep.pruned)
    [ "relax"; "spin" ];
  (* the interleaved same-parity kernel must stay must-alias *)
  let f = func program "colour" in
  let s =
    Ilp_analysis.Memdep.func_stats (Ilp_analysis.Memdep.analyze f) f
  in
  Alcotest.(check bool) "colour keeps must-alias pairs" true
    (s.Ilp_analysis.Memdep.must_alias > 0)

let test_ranges_checksum_identical () =
  (* schedules with and without range sharpening execute identically *)
  let source = redblack_source () in
  let sink ranges =
    let p =
      Ilp_core.Ilp.compile ~check:true ~memdep:true ~ranges
        ~level:Ilp_core.Ilp.O4 (Presets.superscalar 4) source
    in
    (Ilp_sim.Exec.run p).Ilp_sim.Exec.sink
  in
  Alcotest.check Helpers.value_testable "same checksum" (sink false)
    (sink true)

(* --- static per-loop ILP bounds ---------------------------------------- *)

module SB = Ilp_sched.Static_bound

let measure_with_bounds config source =
  let program =
    Ilp_core.Ilp.compile ~memdep:true ~level:Ilp_core.Ilp.O4 config source
  in
  let sb = SB.analyze config program in
  let c = SB.counters sb in
  let tm = Ilp_sim.Timing.create config in
  let outcome =
    Ilp_sim.Exec.run
      ~observers:[ Ilp_sim.Timing.observer tm; SB.observer c ]
      program
  in
  Ilp_sim.Timing.finish tm;
  let lb =
    SB.cycles_lb config sb c ~dyn_instrs:outcome.Ilp_sim.Exec.dyn_instrs
      ~class_counts:outcome.Ilp_sim.Exec.class_counts
  in
  (sb, c, Ilp_sim.Timing.minor_cycles tm, lb)

let test_static_bound_recurrence () =
  let source =
    {|
var s : int = 0;
fun main() {
  var i : int;
  for (i = 0; i < 200; i = i + 1) { s = (s * 3 + i) & 65535; }
  sink(s);
}
|}
  in
  let config = Presets.superscalar 4 in
  let sb, c, measured, lb = measure_with_bounds config source in
  let rec_loops =
    List.filter (fun (b : SB.loop_bound) -> b.SB.sb_recurrence > 0) sb.SB.bounds
  in
  Alcotest.(check bool) "a recurrence-bound loop was found" true
    (rec_loops <> []);
  let b = List.hd rec_loops in
  (* s -> s*3 -> +i -> &mask: three unit-latency links back into s *)
  Alcotest.(check bool) "recurrence spans the whole chain" true
    (b.SB.sb_recurrence >= 3);
  Alcotest.(check bool) "the loop iterated" true (SB.traversals c b >= 199);
  Alcotest.(check bool) "measured respects the floor" true (measured >= lb);
  (* 200 iterations x >=3 cycles each must show up in the floor *)
  Alcotest.(check bool) "recurrence dominates the floor" true (lb >= 3 * 199)

let test_static_bound_workloads () =
  List.iter
    (fun config ->
      List.iter
        (fun name ->
          let w = Ilp_workloads.Registry.find name |> Option.get in
          let unroll =
            if w.Ilp_workloads.Workload.default_unroll > 1 then
              Some
                { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Naive;
                  factor = w.Ilp_workloads.Workload.default_unroll;
                  bounds = false;
                }
            else None
          in
          let program =
            Ilp_core.Ilp.compile ?unroll ~memdep:true ~level:Ilp_core.Ilp.O4
              config w.Ilp_workloads.Workload.source
          in
          let sb = SB.analyze config program in
          let c = SB.counters sb in
          let tm = Ilp_sim.Timing.create config in
          let outcome =
            Ilp_sim.Exec.run
              ~observers:[ Ilp_sim.Timing.observer tm; SB.observer c ]
              program
          in
          Ilp_sim.Timing.finish tm;
          let lb =
            SB.cycles_lb config sb c
              ~dyn_instrs:outcome.Ilp_sim.Exec.dyn_instrs
              ~class_counts:outcome.Ilp_sim.Exec.class_counts
          in
          if Ilp_sim.Timing.minor_cycles tm < lb then
            Alcotest.failf "%s on %s: measured %d < static floor %d" name
              config.Config.name
              (Ilp_sim.Timing.minor_cycles tm)
              lb)
        [ "whet"; "linpack"; "stanford" ])
    [ Presets.superscalar 8; Presets.cray1 () ]

(* --- lint / sanitize exit codes (the CLI binary) ----------------------- *)

let cli = "../bin/ilp_cli.exe"

let oob_source =
  "arr a : int[8];\nfun main() {\n  a[9] = 1;\n  sink(a[0]);\n}\n"

let with_oob_file f =
  let path = Filename.temp_file "ilp_oob" ".mm" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc oob_source);
      f path)

let test_cli_exit_codes () =
  if not (Sys.file_exists cli) then
    Alcotest.skip ()
  else begin
    let run fmt = Printf.ksprintf Sys.command fmt in
    Alcotest.(check int) "lint text, clean benchmark" 0
      (run "%s lint -b whet > /dev/null 2>&1" cli);
    Alcotest.(check int) "lint json, clean benchmark" 0
      (run "%s lint -b whet --json > /dev/null 2>&1" cli);
    Alcotest.(check int) "sanitize, clean benchmark" 0
      (run "%s sanitize -b redblack > /dev/null 2>&1" cli);
    with_oob_file (fun path ->
        Alcotest.(check int) "lint text, proved oob" 1
          (run "%s lint --file %s > /dev/null 2>&1" cli path);
        Alcotest.(check int) "lint json, proved oob" 1
          (run "%s lint --file %s --json > /dev/null 2>&1" cli path);
        Alcotest.(check int) "sanitize, proved oob" 1
          (run "%s sanitize --file %s > /dev/null 2>&1" cli path))
  end

(* --- dynamic soundness of the exported ranges -------------------------- *)

(* Compile [prog] and run it, checking every executed array subscript
   against the static per-array index range and every stored global
   scalar value against its static invariant — for both the plain O0
   binary and a careful bound-aware unrolled O4 binary (the analysis is
   of the rolled program either way: its ranges must cover every run). *)
let check_ranges_sound (prog : Ilp_lang.Gen_prog.prog) =
  let source = Ilp_lang.Gen_prog.render prog in
  let absint = A.analyze (Ilp_lang.Semant.compile_source source) in
  let check_binary ?unroll level =
    let program = Ilp_core.Ilp.compile ?unroll ~level Presets.base source in
    let layout, _ = Program.layout program in
    let arrays =
      List.filter_map
        (fun (name, words) ->
          match Hashtbl.find_opt layout name with
          | Some base -> Some (name, base, words, A.index_range absint name)
          | None -> None)
        prog.Ilp_lang.Gen_prog.arrays
    in
    let scalars =
      List.filter_map
        (fun (name, _) ->
          match Hashtbl.find_opt layout name with
          | Some addr -> Some (addr, name, A.scalar_range absint name)
          | None -> None)
        prog.Ilp_lang.Gen_prog.globals
    in
    let failed = ref None in
    let fail fmt = Printf.ksprintf (fun m -> failed := Some m) fmt in
    let observer _ addr =
      if addr >= 0 && !failed = None then
        List.iter
          (fun (name, base, words, range) ->
            if addr >= base && addr < base + words then
              if not (R.V.mem (addr - base) range) then
                fail "%s[%d] executed outside static index range %s" name
                  (addr - base) (R.V.to_string range))
          arrays
    in
    let on_store _ addr value =
      if !failed = None then
        List.iter
          (fun (saddr, name, range) ->
            if addr = saddr then
              match value with
              | Ilp_sim.Value.Int n ->
                  if not (R.V.mem n range) then
                    fail "%s := %d outside static range %s" name n
                      (R.V.to_string range)
              | Ilp_sim.Value.Float _ -> ())
          scalars
    in
    ignore (Ilp_sim.Exec.run ~observer ~on_store program);
    match !failed with Some m -> failwith m | None -> ()
  in
  (* no generated access is ever proved out of bounds: subscripts are
     in range by construction and the analysis is sound *)
  let _, oob, _ = A.counts absint in
  if oob > 0 then failwith "generated program wrongly proved out of bounds";
  check_binary Ilp_core.Ilp.O0;
  check_binary
    ~unroll:
      { Ilp_core.Ilp.mode = Ilp_lang.Unroll.Careful; factor = 4; bounds = true }
    Ilp_core.Ilp.O4;
  true

let prop_ranges_sound name gen =
  QCheck2.Test.make ~count:25
    ~name:(Printf.sprintf "%s programs: observed values in static ranges" name)
    ~print:Ilp_lang.Gen_prog.render gen check_ranges_sound

let tests =
  [ Alcotest.test_case "interval algebra" `Quick test_interval_algebra;
    Alcotest.test_case "congruence algebra" `Quick test_congruence_algebra;
    Alcotest.test_case "product: strides and masks" `Quick
      test_product_strides;
    Alcotest.test_case "product: separated windows" `Quick
      test_separated_windows;
    Alcotest.test_case "product: counted loops" `Quick test_of_counted;
    Alcotest.test_case "sanitize: proves out-of-bounds" `Quick
      test_sanitize_proves_oob;
    Alcotest.test_case "sanitize: proves strided stores safe" `Quick
      test_sanitize_proves_safe;
    Alcotest.test_case "sanitize: no workload proved oob" `Slow
      test_workloads_no_oob;
    Alcotest.test_case "sanitize: exact tally of every --all configuration"
      `Slow test_sanitize_tallies;
    Alcotest.test_case "sanitize: site paths and discovery order" `Quick
      test_site_paths;
    Alcotest.test_case "absint: allocation within budget" `Quick
      test_absint_allocation;
    Alcotest.test_case "memdep: ranges prune redblack" `Quick
      test_redblack_range_pruning;
    Alcotest.test_case "memdep: range schedules are sound" `Quick
      test_ranges_checksum_identical;
    Alcotest.test_case "static bound: counted-loop recurrence" `Quick
      test_static_bound_recurrence;
    Alcotest.test_case "static bound: measured >= floor on workloads" `Slow
      test_static_bound_workloads;
    Alcotest.test_case "cli: lint and sanitize exit codes" `Slow
      test_cli_exit_codes;
    QCheck_alcotest.to_alcotest (prop_ranges_sound "random" Gen_minimod.prog);
    QCheck_alcotest.to_alcotest
      (prop_ranges_sound "alias-heavy" Gen_minimod.alias_heavy_prog);
    QCheck_alcotest.to_alcotest
      (prop_ranges_sound "unroll-heavy" Gen_minimod.unroll_heavy_prog);
    QCheck_alcotest.to_alcotest
      (prop_ranges_sound "range-heavy" Gen_minimod.range_heavy_prog) ]
