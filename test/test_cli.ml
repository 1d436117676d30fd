(* `oclcu run` exit-code contract: an input that cannot run ends in a
   one-line diagnostic and the exit code its man page documents, never
   in an uncaught exception (exit 125). *)

(* The CLI binary sits next to this test's directory in the build tree. *)
let oclcu =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

(* Run `oclcu run` on [src] written to a temporary [name]; returns the
   exit code and the diagnostic lines printed on stderr. *)
let run_source ~name src =
  let dir = Filename.temp_dir "oclcu-run" "" in
  let path = Filename.concat dir name in
  let err = Filename.concat dir "stderr" in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  let code =
    Sys.command
      (Printf.sprintf "%s run %s >/dev/null 2>%s" (Filename.quote oclcu)
         (Filename.quote path) (Filename.quote err))
  in
  let lines =
    In_channel.with_open_bin err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  Sys.remove err;
  Sys.rmdir dir;
  (code, lines)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect ~name ~code ~mentions src () =
  let got, lines = run_source ~name src in
  Alcotest.(check int) "exit code" code got;
  match lines with
  | [ l ] ->
    List.iter
      (fun m ->
         if not (contains l m) then
           Alcotest.failf "diagnostic %S does not mention %S" l m)
      mentions
  | _ ->
    Alcotest.failf "expected one diagnostic line, got:\n%s"
      (String.concat "\n" lines)

let truncated = "__global__ void k(int* a) {\n  a[threadIdx.x] = \n"

let no_main = {|
__global__ void k(int* a) { a[threadIdx.x] = 1; }
int helper() { return 0; }
|}

let out_of_bounds = {|
__global__ void poke(int* a) {
  a[threadIdx.x + 100000000] = 1;
}

int main() {
  int* d;
  cudaMalloc((void**)&d, 64 * sizeof(int));
  poke<<<1, 4>>>(d);
  cudaDeviceSynchronize();
  return 0;
}
|}

let suites =
  [ ( "cli.run-exit-codes",
      [ Alcotest.test_case "truncated source exits 2 with file:line" `Quick
          (expect ~name:"oclcu_truncated.cu" ~code:2
             ~mentions:[ "oclcu_truncated.cu:3:" ] truncated);
        Alcotest.test_case "host program without main exits 3" `Quick
          (expect ~name:"oclcu_no_main.cu" ~code:3
             ~mentions:[ "oclcu_no_main.cu:"; "main" ] no_main);
        Alcotest.test_case "out-of-bounds device store exits 4" `Quick
          (expect ~name:"oclcu_oob.cu" ~code:4
             ~mentions:[ "oclcu_oob.cu:"; "global" ] out_of_bounds) ] ) ]
