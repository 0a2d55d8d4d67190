from hypothesis import settings

# Timings on a shared virtual machine drift too far for a per-example
# deadline to mean anything; every property test inherits this profile.
settings.register_profile("unscodec", deadline=None)
settings.load_profile("unscodec")
