"""A stdlib HTTP server that parses a JSON body and sends it back.

The ``service`` workload's speed probe: a round trip to it is the same
kind of work as a cached submission (an ``http.client`` request over
loopback, a Python server parsing and writing JSON) but runs none of the
program's code.  Prints its port, then serves until terminated::

    python3 -I perfbench/echo_server.py
"""

import http.server
import json


class Echo(http.server.BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        reply = json.dumps({"echo": json.loads(body)}, sort_keys=True).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
