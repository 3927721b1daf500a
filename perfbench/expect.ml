(* Committed expectations, printed by [main.exe expect]. *)

let paper_digests =
  [
    ("figure4", "de918d8a15a5130d8a41ea28f3c2784a");
    ("table6", "f94fd5d6bc0bc646104eb0795eb418cd");
    ("a1", "788f06c6a107c3f1fcdc658379240011");
    ("a2", "d3f085730ca9d4e245478135d49569bd");
    ("a3.scenario1", "839b4e134c1e9da3acd54a72ab849067");
    ("a3.scenario2", "dfc6ea70b4d85030568475bf01353311");
    ("a4", "488d2a6060d285f7df69e2e174aae668");
  ]

let figure4_rows =
  [
    ("scenario1", "H-Load", 1394648, 1487310, 1267616, 514816, 514816);
    ("scenario1", "M-Load", 1394648, 1432510, 1267616, 335424, 335424);
    ("scenario1", "L-Load", 1394648, 1411700, 1267616, 119808, 119808);
    ("scenario2", "H-Load", 1814880, 2039217, 2367173, 1057127, 1039044);
    ("scenario2", "M-Load", 1814880, 1872034, 2367173, 411934, 387780);
    ("scenario2", "L-Load", 1814880, 1818146, 2367173, 69153, 54025);
  ]
