from hypothesis import settings

# Property tests draw the same examples on every run, so the suite gives one
# verdict per commit; each test keeps its own max_examples.
settings.register_profile("nil3lab", derandomize=True, deadline=None, database=None)
settings.load_profile("nil3lab")
