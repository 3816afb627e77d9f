from tests.shm_guard import no_leaked_shared_memory  # noqa: F401
