"""Thread targets are submissions: one racy target, one clean one."""

import threading


class Runner:
    def __init__(self):
        self.done = []

    def _racy(self, x):
        self.done.append(x)  # NL601: the shared instance mutated on a thread

    def _clean(self, x, out):
        out.append(x * 2.0)  # writes only through its argument

    def start(self, x):
        threading.Thread(target=self._racy, args=(x,), daemon=True).start()
        out = []
        threading.Thread(target=self._clean, args=(x, out), daemon=True).start()
        return out
