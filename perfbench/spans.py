'''In-memory spans and counts for the traced benchmark run.

A span is one timed call into a cubology layer, recorded from the
benchmark's side of the call: name (``<module>.<function>``), start and
end on the monotonic clock, the span that was open when it began, the
id of the input it served, and free-form attributes such as the cube
size. Spans stay in a list until the run ends and are then written out
as one JSON file. Counts are plain named totals recorded at the same
call boundaries.
'''

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextmanager
    def span(self, name, input_id=None, **attrs):
        record = {'id': len(self.spans), 'name': name,
                  'parent': self._open[-1] if self._open else None,
                  'input': input_id, 'start': time.perf_counter(),
                  'end': None, **attrs}
        self.spans.append(record)
        self._open.append(record['id'])
        try:
            yield record
        finally:
            record['end'] = time.perf_counter()
            self._open.pop()

    def record(self, name, start, end, input_id=None, **attrs):
        '''Add a span timed by the caller, under the open span.'''
        self.spans.append({'id': len(self.spans), 'name': name,
                           'parent': self._open[-1] if self._open else None,
                           'input': input_id, 'start': start, 'end': end,
                           **attrs})

    def count(self, name, amount=1):
        self.counts[name] += amount

    def adopt(self, spans, parent_id):
        '''Take spans recorded by a child process. perf_counter is the
        system-wide monotonic clock on Linux, so their times line up
        with ours; ids are renumbered and roots hang off parent_id.'''
        offset = len(self.spans)
        for record in spans:
            record = dict(record)
            record['id'] += offset
            record['parent'] = (parent_id if record['parent'] is None
                                else record['parent'] + offset)
            self.spans.append(record)

    def self_times(self):
        '''Seconds per layer (the name up to its first dot) not covered
        by child spans. Children of one span may overlap, as the two
        processes of a pipe do, so their union is subtracted.'''
        children = defaultdict(list)
        for s in self.spans:
            if s['parent'] is not None:
                children[s['parent']].append((s['start'], s['end']))
        totals = Counter()
        for s in self.spans:
            covered = 0.0
            reach = s['start']
            for start, end in sorted(children[s['id']]):
                start, end = max(start, reach), min(end, s['end'])
                if end > start:
                    covered += end - start
                    reach = end
            layer = s['name'].split('.', 1)[0]
            totals[layer] += (s['end'] - s['start']) - covered
        return totals

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, 'w') as handle:
            json.dump({'spans': self.spans, 'counts': dict(self.counts)},
                      handle)
