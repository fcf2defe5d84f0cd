let ppro_single_thread_s = 23.280357

let table1_threads_s = [ 26.040385; 26.063408 ]

let table1_processes_s = [ 23.309635; 23.314431 ]

(* Figure 1 is described by "elapsed time increases linearly ... at a
   constant slope of m/n" with m = 23 s, n = 2 CPUs; below the CPU count
   a single thread still takes m. Derived, not printed in the paper. *)
let fig1_derived =
  List.map (fun t -> (float_of_int t, max 23.3 (23.3 *. float_of_int t /. 2.))) [ 1; 2; 3; 4; 5; 6 ]

let fig2_threads = [ 8; 16; 24; 32; 40; 48; 56; 64 ]

let sparc_single_thread_s = 6.0535318

let table2_threads_s = [ 54.272971; 54.407517 ]

let table2_processes_s = [ 6.024991; 6.053607 ]

let xeon_single_thread_s = 10.393376

let table3_threads_s = [ 12.393250; 12.397936 ]

let table3_processes_s = [ 10.394361; 10.395771 ]

let table4_runs_s =
  [ 12.587744; 12.587753; 14.862689; 12.578893; 12.577891; 14.844941; 12.579065; 12.578305;
    14.841121; 12.576630; 12.577823; 14.836253; 12.584923; 12.584535; 14.856683 ]

let predictor_per_round_thread = 1.1

let predictor_per_thread = 127.6

let bench3_single_thread_s = 2.102

let bench3_sizes = [ 3; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40; 44; 48; 52 ]

let bench3_max_slowdown = 4.0
